/**
 * @file
 * Dynamic instruction trace: the interface between the functional
 * emulator (or the synthetic generator) and the timing simulator.
 * The paper's methodology is trace-driven cycle simulation (a modified
 * SimpleScalar); TraceOp carries exactly what that style of simulator
 * needs per dynamic instruction: operand registers, memory address,
 * and the actual control-flow outcome.
 */

#ifndef CESP_TRACE_TRACE_HPP
#define CESP_TRACE_TRACE_HPP

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "isa/isa.hpp"

namespace cesp::trace {

/** One dynamic instruction. */
struct TraceOp
{
    uint32_t pc = 0;
    uint32_t next_pc = 0;   //!< actual successor (branch outcome)
    uint32_t mem_addr = 0;  //!< effective address for loads/stores
    isa::Opcode op = isa::Opcode::NOP;
    isa::OpClass cls = isa::OpClass::Nop;
    int8_t dst = -1;        //!< flat arch register, -1/0 = none
    int8_t src1 = -1;
    int8_t src2 = -1;
    uint8_t mem_size = 0;   //!< access size in bytes (loads/stores)
    bool taken = false;     //!< branch outcome (true for taken)
    uint8_t pad = 0;        //!< explicit zero so the record has no
                            //!< indeterminate bytes (v2 files CRC the
                            //!< raw in-memory layout)

    bool
    hasDst() const
    {
        return dst > 0; // integer r0 never creates a dependence
    }

    bool isLoad() const { return cls == isa::OpClass::Load; }
    bool isStore() const { return cls == isa::OpClass::Store; }

    bool
    isCondBranch() const
    {
        return cls == isa::OpClass::BranchCond;
    }
};

// The v2 trace file format stores TraceOp's in-memory layout
// verbatim (one 20-byte record per dynamic instruction), so reading
// is a pointer cast instead of a decode pass. Pin the layout here:
// if a field is added or reordered, these fire and the format
// version must be bumped.
static_assert(sizeof(TraceOp) == 20, "trace record layout changed");
static_assert(std::is_trivially_copyable_v<TraceOp>,
              "trace records must be raw-copyable");
static_assert(offsetof(TraceOp, pc) == 0 &&
              offsetof(TraceOp, next_pc) == 4 &&
              offsetof(TraceOp, mem_addr) == 8 &&
              offsetof(TraceOp, op) == 12 &&
              offsetof(TraceOp, cls) == 13 &&
              offsetof(TraceOp, dst) == 14 &&
              offsetof(TraceOp, src1) == 15 &&
              offsetof(TraceOp, src2) == 16 &&
              offsetof(TraceOp, mem_size) == 17 &&
              offsetof(TraceOp, taken) == 18 &&
              offsetof(TraceOp, pad) == 19,
              "trace record layout changed");

/** Consumer interface for dynamic instructions. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void append(const TraceOp &op) = 0;
};

/** Producer interface for the timing simulator. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Fetch the next dynamic instruction; false at end of trace. */
    virtual bool next(TraceOp &out) = 0;

    /** Restart from the beginning (used to replay across configs). */
    virtual void rewind() = 0;
};

/** In-memory trace: both a sink and a replayable source. */
class TraceBuffer : public TraceSink, public TraceSource
{
  public:
    void
    append(const TraceOp &op) override
    {
        ops_.push_back(op);
    }

    bool
    next(TraceOp &out) override
    {
        if (pos_ >= ops_.size())
            return false;
        out = ops_[pos_++];
        return true;
    }

    void rewind() override { pos_ = 0; }

    /** Replace the contents wholesale (bulk-load path: file I/O
     *  reads records straight into a vector, no append loop). */
    void
    assign(std::vector<TraceOp> ops)
    {
        ops_ = std::move(ops);
        pos_ = 0;
    }

    size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }
    const TraceOp &operator[](size_t i) const { return ops_[i]; }
    const std::vector<TraceOp> &ops() const { return ops_; }

  private:
    std::vector<TraceOp> ops_;
    size_t pos_ = 0;
};

/**
 * Non-owning view of a contiguous run of trace records. This is the
 * common currency between the two shared-trace storage kinds — a
 * TraceBuffer's vector and an MmapTraceSource's file mapping — and
 * what the sweep runner passes around: a view is two words, freely
 * copyable, and many simulations can read through one concurrently.
 * The storage behind the view must stay alive (and must not
 * reallocate: don't append to a TraceBuffer while views of it are
 * live) for as long as the view is used.
 */
struct TraceView
{
    const TraceOp *records = nullptr;
    size_t count = 0;

    TraceView() = default;
    TraceView(const TraceOp *r, size_t n) : records(r), count(n) {}
    /*implicit*/ TraceView(const TraceBuffer &buf)
        : records(buf.ops().data()), count(buf.size())
    {
    }

    bool empty() const { return count == 0; }
    const TraceOp &operator[](size_t i) const { return records[i]; }

    /**
     * The contiguous window of @p n records starting at @p offset —
     * the zero-copy currency of trace sharding: a shard's window is
     * a view into the same storage, so splitting a trace K ways
     * allocates nothing. Fatal if the window reaches past the end.
     */
    TraceView slice(size_t offset, size_t n) const;
};

/**
 * Read-only cursor over records someone else owns. A TraceBuffer is
 * itself a TraceSource, but its cursor is part of the buffer, so two
 * simulations cannot share one buffer concurrently. Each TraceCursor
 * carries its own position and only reads the underlying storage —
 * any number of cursors may walk the same view from different
 * threads, which is what the sweep runner does.
 */
class TraceCursor : public TraceSource
{
  public:
    explicit TraceCursor(TraceView view) : view_(view) {}

    bool
    next(TraceOp &out) override
    {
        if (pos_ >= view_.count)
            return false;
        out = view_[pos_++];
        return true;
    }

    void rewind() override { pos_ = 0; }

    /** Jump to record @p pos; positions at or past the end make the
     *  next next() return false (an exhausted cursor, not an error). */
    void seek(size_t pos) { pos_ = pos; }

    /** Index of the record the next next() returns. */
    size_t position() const { return pos_; }

    /** The records this cursor walks. */
    TraceView view() const { return view_; }

  private:
    TraceView view_;
    size_t pos_ = 0;
};

/** Summary statistics of a trace (used by tests and reports). */
struct TraceMix
{
    uint64_t total = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t cond_branches = 0;
    uint64_t uncond = 0;
    uint64_t int_alu = 0;
    uint64_t other = 0;

    double
    frac(uint64_t n) const
    {
        return total ? static_cast<double>(n) /
            static_cast<double>(total) : 0.0;
    }
};

/** Classify every op of a trace. */
TraceMix computeMix(TraceView trace);

} // namespace cesp::trace

#endif // CESP_TRACE_TRACE_HPP
