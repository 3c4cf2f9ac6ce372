/**
 * @file
 * In-memory span recorder for the traced run. A span brackets one
 * call from the benchmark into a public function of the cesp library
 * (simulate, core::run, saveTrace, ...): name, start, end, parent
 * span and run id. Spans stay in memory while the workload runs and
 * are written out once at exit, so recording costs two clock reads
 * and a vector append. A disabled recorder records nothing, which is
 * how the untraced run measures end-to-end metrics.
 *
 * Thread-safe: sharded_stream records stream appends from core::run
 * worker threads. Each thread keeps its own stack of open spans, so
 * a span's parent is the innermost open span of the same thread
 * unless the caller names one explicitly.
 */

#ifndef PERFBENCH_SPANS_HPP
#define PERFBENCH_SPANS_HPP

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded interval. Times are wallNow() seconds. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1; //!< index of the parent span, -1 for a root
    int64_t run = -1;    //!< simulation/task id the span belongs to
    std::string tag;     //!< free-form key, e.g. "baseline/m88ksim"
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

    /** Pause (false) or resume recording; a traced run pauses it for
     *  its untraced passes. Call between, not during, calls that
     *  record from other threads. */
    void setActive(bool on) { active_ = on; }

    /** Open a span; returns its id, or -1 when disabled or paused. The parent
     *  is @p parent if >= 0, else this thread's innermost open span. */
    int64_t begin(std::string name, int64_t run = -1,
                  std::string tag = {}, int64_t parent = -1);
    /** Close span @p id (no-op for -1). */
    void end(int64_t id);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Write every span as a JSON document to @p path. */
    bool write(const std::string &path) const;

  private:
    bool enabled_;
    std::atomic<bool> active_{true};
    mutable std::mutex mu_; //!< guards spans_
    std::vector<Span> spans_;
};

/** RAII span: opens in the constructor, closes in the destructor. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, int64_t run = -1,
               std::string tag = {}, int64_t parent = -1)
        : rec_(rec), id_(rec.begin(std::move(name), run,
                                   std::move(tag), parent))
    {
    }
    ~ScopedSpan() { rec_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int64_t id() const { return id_; }

  private:
    SpanRecorder &rec_;
    int64_t id_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its children (the union of their intervals,
 * clipped to the parent, so overlapping children from several
 * threads are not subtracted twice). Indexed like @p spans.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Per span name: {total duration, total self time, span count}. */
struct SpanTotals
{
    double total = 0.0;
    double self = 0.0;
    uint64_t count = 0;
};
std::map<std::string, SpanTotals>
totalsByName(const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HPP
