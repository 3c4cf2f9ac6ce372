#include "replay.hpp"

#include <algorithm>
#include <memory>

#include "bpred/bpred.hpp"
#include "measure.hpp"
#include "mem/cache.hpp"
#include "uarch/fifos.hpp"
#include "uarch/lsq.hpp"
#include "uarch/pipeline.hpp"
#include "uarch/rename.hpp"
#include "uarch/steering.hpp"
#include "uarch/wakeup.hpp"
#include "uarch/window.hpp"

namespace perfbench {

using cesp::uarch::DynInst;
using cesp::uarch::FifoSet;
using cesp::uarch::IssueBufferStyle;
using cesp::uarch::IssueWindow;
using cesp::uarch::SimConfig;
using cesp::uarch::SteerDecision;
using cesp::uarch::SteerKind;

namespace {

/** FIFO pool of @p cfg, or null when the organization has none. */
std::unique_ptr<FifoSet>
makeFifos(const SimConfig &cfg)
{
    if (cfg.style == IssueBufferStyle::Fifos)
        return std::make_unique<FifoSet>(
            cfg.num_clusters, cfg.fifos_per_cluster, cfg.fifo_depth);
    if (cfg.steering == cesp::uarch::SteeringPolicy::WindowFifo)
        return std::make_unique<FifoSet>(cfg.num_clusters,
                                         cfg.concept_fifos_per_cluster,
                                         cfg.concept_fifo_depth);
    return nullptr;
}

/** Issue windows of @p cfg (empty for the FIFO organization). */
std::vector<IssueWindow>
makeWindows(const SimConfig &cfg)
{
    std::vector<IssueWindow> w;
    if (cfg.style == IssueBufferStyle::CentralWindow)
        w.emplace_back(cfg.window_size,
                       cfg.window_compaction
                           ? cesp::uarch::WindowOrder::AgeCompacted
                           : cesp::uarch::WindowOrder::SlotPriority);
    else if (cfg.style == IssueBufferStyle::PerClusterWindow)
        for (int c = 0; c < cfg.num_clusters; ++c)
            w.emplace_back(cfg.window_size);
    return w;
}

/** Retires issued instructions in program order, as commit does. */
class Retirer
{
  public:
    explicit Retirer(size_t n) : issued_(n, 0) {}

    template <class F>
    void
    issue(uint64_t seq, F &&retire)
    {
        issued_[seq] = 1;
        while (head_ < issued_.size() && issued_[head_])
            retire(head_++);
    }

    /** Retire the oldest in-flight instruction early (frees its
     *  resources when the replay runs short of them). */
    template <class F>
    bool
    forceOne(F &&retire)
    {
        if (head_ >= issued_.size())
            return false;
        retire(head_++);
        return true;
    }

  private:
    std::vector<uint8_t> issued_;
    uint64_t head_ = 0;
};

/** Run @p body @p reps times under spans; median seconds. */
template <class F>
double
timeReps(int reps, SpanRecorder &spans, const std::string &name,
         int64_t run, F &&body)
{
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        ScopedSpan span(spans, "replay." + name, run);
        double t0 = wallNow();
        body();
        t.push_back(wallNow() - t0);
    }
    return median(t);
}

void
add(ReplayCosts &costs, const std::string &name, double seconds,
    uint64_t ops, uint64_t useful = 0, uint64_t tries = 0)
{
    ComponentCost &c = costs[name];
    c.seconds += seconds;
    c.ops += ops;
    c.useful += useful;
    c.tries += tries;
}

/**
 * The steering replay's dispatch/issue loop. With @p recorded null
 * it calls Steering::decide and stores each decision in @p out; with
 * @p recorded set it replays those decisions instead (allocating new
 * FIFOs the same way), so the difference between the two timings is
 * the cost of decide alone.
 */
void
steerPass(const Recording &rec, const std::vector<SteerDecision> *recorded,
          std::vector<SteerDecision> &out)
{
    const SimConfig &cfg = rec.cfg;
    const size_t n = rec.records.count;
    cesp::uarch::RenameState ren(cfg);
    std::unique_ptr<FifoSet> fifos = makeFifos(cfg);
    std::vector<IssueWindow> windows = makeWindows(cfg);
    cesp::uarch::Steering steer(cfg, fifos.get(),
                                windows.empty() ? nullptr : &windows);
    std::vector<DynInst> rob(n);
    std::vector<int> old(n, -1);
    Retirer ret(n);
    auto retire = [&](uint64_t s) {
        if (old[s] >= 0)
            ren.release(old[s]);
    };
    cesp::uarch::RobLookup lookup =
        [&](uint64_t s) -> const DynInst & { return rob[s]; };

    size_t k = 0; // dispatch index
    for (const PipeEvent &e : rec.events) {
        if (e.seq >= n)
            continue;
        DynInst &d = rob[e.seq];
        if (!e.issue) {
            const auto &op = e.op;
            d = DynInst{};
            d.op = op;
            d.seq = e.seq;
            d.src1_preg = op.src1 > 0 ? ren.mapOf(op.src1) : -1;
            d.src2_preg = op.src2 > 0 ? ren.mapOf(op.src2) : -1;
            SteerDecision dec;
            if (!recorded) {
                dec = steer.decide(d, ren, e.cycle, lookup);
                out.push_back(dec);
            } else {
                dec = (*recorded)[k];
                if (dec.ok && dec.kind == SteerKind::NewFifo && fifos) {
                    int f = fifos->allocate();
                    if (f >= 0)
                        dec.fifo = f;
                }
            }
            ++k;
            bool placed = false;
            if (dec.ok) {
                switch (cfg.style) {
                  case IssueBufferStyle::CentralWindow:
                    if (!windows[0].full()) {
                        windows[0].insert(e.seq);
                        placed = true;
                    }
                    break;
                  case IssueBufferStyle::PerClusterWindow:
                    if (dec.cluster >= 0 &&
                        !windows[static_cast<size_t>(dec.cluster)].full() &&
                        (!fifos ||
                         (dec.fifo >= 0 && fifos->allocated(dec.fifo) &&
                          !fifos->full(dec.fifo)))) {
                        windows[static_cast<size_t>(dec.cluster)].insert(
                            e.seq);
                        if (fifos)
                            fifos->push(dec.fifo, e.seq);
                        placed = true;
                    }
                    break;
                  case IssueBufferStyle::Fifos:
                    if (dec.fifo >= 0 && fifos->allocated(dec.fifo) &&
                        !fifos->full(dec.fifo)) {
                        fifos->push(dec.fifo, e.seq);
                        placed = true;
                    }
                    break;
                }
            }
            d.cluster = dec.cluster;
            d.fifo = placed ? dec.fifo : -1;
            d.in_buffer = placed;
            if (op.hasDst()) {
                while (!ren.hasFreeFor(op.dst) && ret.forceOne(retire)) {
                }
                if (ren.hasFreeFor(op.dst)) {
                    auto r = ren.rename(op.dst, e.seq);
                    d.dst_preg = r.preg;
                    old[e.seq] = r.old_preg;
                }
            }
        } else {
            if (d.in_buffer) {
                switch (cfg.style) {
                  case IssueBufferStyle::CentralWindow:
                    windows[0].remove(e.seq);
                    break;
                  case IssueBufferStyle::PerClusterWindow:
                    windows[static_cast<size_t>(d.cluster)].remove(e.seq);
                    if (fifos)
                        fifos->remove(d.fifo, e.seq);
                    break;
                  case IssueBufferStyle::Fifos:
                    if (fifos->head(d.fifo) == e.seq)
                        fifos->popHead(d.fifo);
                    else
                        fifos->remove(d.fifo, e.seq);
                    break;
                }
                d.in_buffer = false;
            }
            if (d.dst_preg >= 0)
                ren.preg(d.dst_preg).computed_cycle = e.complete;
            ret.issue(e.seq, retire);
        }
    }
}

} // namespace

Recording
record(const SimConfig &cfg, cesp::trace::TraceView input, uint64_t max_insts)
{
    Recording rec;
    rec.cfg = cfg;
    size_t n = static_cast<size_t>(
        std::min<uint64_t>(input.count, max_insts));
    rec.records = input.slice(0, n);

    std::unique_ptr<FifoSet> shape = makeFifos(cfg);
    std::vector<int> occupancy(shape ? shape->numFifos() : 0, 0);
    std::vector<size_t> dispatch_at(n, 0);

    cesp::trace::TraceCursor cursor(rec.records);
    cesp::uarch::Pipeline pipe(cfg, cursor);
    pipe.setDispatchObserver([&](const DynInst &d) {
        PipeEvent e;
        e.seq = d.seq;
        e.cycle = d.dispatch_cycle;
        e.fifo = static_cast<int16_t>(d.fifo);
        e.cluster = static_cast<int16_t>(d.cluster);
        e.op = d.op;
        if (d.fifo >= 0 && static_cast<size_t>(d.fifo) < occupancy.size())
            e.new_fifo = occupancy[static_cast<size_t>(d.fifo)]++ == 0;
        if (d.seq < n)
            dispatch_at[d.seq] = rec.events.size();
        rec.events.push_back(e);
    });
    pipe.setIssueObserver([&](const DynInst &d) {
        PipeEvent e;
        e.issue = true;
        e.seq = d.seq;
        e.cycle = d.issue_cycle;
        e.complete = d.complete_cycle;
        e.fifo = static_cast<int16_t>(d.fifo);
        e.cluster = static_cast<int16_t>(d.cluster);
        e.op = d.op;
        if (d.fifo >= 0 && static_cast<size_t>(d.fifo) < occupancy.size())
            --occupancy[static_cast<size_t>(d.fifo)];
        if (d.seq < n)
            rec.events[dispatch_at[d.seq]].issue_cycle = d.issue_cycle;
        rec.events.push_back(e);
    });
    cesp::uarch::RunLimits limits;
    limits.max_instructions = n;
    pipe.run(limits);
    return rec;
}

void
replayAll(const Recording &rec, int reps, SpanRecorder &spans,
          ReplayCosts &costs)
{
    const SimConfig &cfg = rec.cfg;
    const cesp::trace::TraceView recs = rec.records;
    const size_t n = recs.count;
    const int64_t run = -1;

    { // Conditional-branch stream into gshare.
        uint64_t ops = 0, correct = 0;
        double t = timeReps(reps, spans, "bpred", run, [&] {
            cesp::bpred::Gshare g(cfg.bpred);
            ops = 0;
            for (size_t i = 0; i < n; ++i) {
                const auto &op = recs[i];
                if (!op.isCondBranch())
                    continue;
                bool p = g.predict(op.pc);
                g.record(p, op.taken);
                g.update(op.pc, op.taken);
                ++ops;
            }
            correct = g.lookups() - g.mispredicts();
        });
        add(costs, "bpred", t, ops, correct, ops);
    }

    { // Load/store address stream into the L1 data cache.
        uint64_t ops = 0, hits = 0;
        double t = timeReps(reps, spans, "mem", run, [&] {
            cesp::mem::Cache c(cfg.dcache);
            for (size_t i = 0; i < n; ++i) {
                const auto &op = recs[i];
                if (op.isLoad() || op.isStore())
                    c.access(op.mem_addr, op.isStore());
            }
            ops = c.accesses();
            hits = c.accesses() - c.misses();
        });
        add(costs, "mem", t, ops, hits, ops);
    }

    { // Map-table reads, renames and commit-time releases.
        uint64_t ops = 0;
        double t = timeReps(reps, spans, "rename", run, [&] {
            cesp::uarch::RenameState ren(cfg);
            std::vector<int> old(n, -1);
            Retirer ret(n);
            ops = 0;
            int sink = 0;
            auto retire = [&](uint64_t s) {
                if (old[s] >= 0) {
                    ren.release(old[s]);
                    ++ops;
                }
            };
            for (const PipeEvent &e : rec.events) {
                if (e.seq >= n)
                    continue;
                if (e.issue) {
                    ret.issue(e.seq, retire);
                    continue;
                }
                const auto &op = e.op;
                if (op.src1 > 0) {
                    sink += ren.mapOf(op.src1);
                    ++ops;
                }
                if (op.src2 > 0) {
                    sink += ren.mapOf(op.src2);
                    ++ops;
                }
                if (!op.hasDst())
                    continue;
                while (!ren.hasFreeFor(op.dst) && ret.forceOne(retire)) {
                }
                if (!ren.hasFreeFor(op.dst))
                    continue;
                old[e.seq] = ren.rename(op.dst, e.seq).old_preg;
                ++ops;
            }
            ops += static_cast<uint64_t>(sink < 0); // keeps sink live
        });
        add(costs, "rename", t, ops);
    }

    { // Steering::decide, isolated by subtracting a replayed-decision
      // pass that does the same rename and buffer bookkeeping.
        std::vector<SteerDecision> decisions;
        double with_decide = timeReps(reps, spans, "steer", run, [&] {
            decisions.clear();
            steerPass(rec, nullptr, decisions);
        });
        std::vector<SteerDecision> unused;
        double replayed = timeReps(reps, spans, "steer_glue", run, [&] {
            steerPass(rec, &decisions, unused);
        });
        uint64_t chained = 0;
        for (const SteerDecision &d : decisions)
            chained += d.kind == SteerKind::ChainLeft ||
                d.kind == SteerKind::ChainRight;
        add(costs, "steer", std::max(0.0, with_decide - replayed),
            decisions.size(), chained, decisions.size());
    }

    if (makeFifos(cfg)) { // FIFO allocate / push / pop / remove.
        uint64_t ops = 0;
        double t = timeReps(reps, spans, "fifo", run, [&] {
            std::unique_ptr<FifoSet> fs = makeFifos(cfg);
            std::vector<int> map(static_cast<size_t>(fs->numFifos()), -1);
            std::vector<int> placed(n, -1);
            ops = 0;
            for (const PipeEvent &e : rec.events) {
                if (e.fifo < 0 || e.seq >= n)
                    continue;
                if (!e.issue) {
                    int f = map[static_cast<size_t>(e.fifo)];
                    if (e.new_fifo) {
                        f = fs->allocate();
                        map[static_cast<size_t>(e.fifo)] = f;
                        ++ops;
                    }
                    if (f < 0 || !fs->allocated(f) || fs->full(f))
                        continue;
                    fs->push(f, e.seq);
                    placed[e.seq] = f;
                    ++ops;
                } else if (int f = placed[e.seq]; f >= 0) {
                    if (fs->head(f) == e.seq)
                        fs->popHead(f);
                    else
                        fs->remove(f, e.seq);
                    ++ops;
                }
            }
        });
        add(costs, "fifo", t, ops);
    }

    if (!makeWindows(cfg).empty()) { // Window insert / remove.
        uint64_t ops = 0;
        const bool central = cfg.style == IssueBufferStyle::CentralWindow;
        double t = timeReps(reps, spans, "window", run, [&] {
            std::vector<IssueWindow> ws = makeWindows(cfg);
            std::vector<int> in(n, -1);
            ops = 0;
            for (const PipeEvent &e : rec.events) {
                if (e.seq >= n)
                    continue;
                if (!e.issue) {
                    int w = central ? 0 : e.cluster;
                    if (w < 0 || ws[static_cast<size_t>(w)].full())
                        continue;
                    ws[static_cast<size_t>(w)].insert(e.seq);
                    in[e.seq] = w;
                    ++ops;
                } else if (in[e.seq] >= 0) {
                    ws[static_cast<size_t>(in[e.seq])].remove(e.seq);
                    ++ops;
                }
            }
        });
        add(costs, "window", t, ops);
    }

    { // Wakeup calendar: one event per instruction, due at its
      // observed issue cycle, popped as simulated time advances.
        uint64_t ops = 0;
        double t = timeReps(reps, spans, "wakeup", run, [&] {
            cesp::uarch::WakeupCalendar cal;
            std::vector<uint64_t> out;
            uint64_t cursor = 0;
            ops = 0;
            for (const PipeEvent &e : rec.events) {
                if (e.cycle >= cursor) {
                    cal.popDue(e.cycle, out);
                    ops += out.size();
                    out.clear();
                    cursor = e.cycle + 1;
                }
                if (!e.issue) {
                    cal.schedule(std::max(e.issue_cycle, cursor), e.seq);
                    ++ops;
                }
            }
            cal.popDue(cursor + (1u << 20), out);
            ops += out.size();
        });
        add(costs, "wakeup", t, ops);
    }

    { // Store queue: dispatch, issue, load checks and forwarding,
      // in-order retirement.
        uint64_t ops = 0, loads = 0, forwards = 0;
        std::vector<uint8_t> is_store(n, 0);
        for (const PipeEvent &e : rec.events)
            if (!e.issue && e.seq < n)
                is_store[e.seq] = e.op.isStore();
        double t = timeReps(reps, spans, "lsq", run, [&] {
            cesp::uarch::StoreQueue sq;
            Retirer ret(n);
            std::vector<uint8_t> issued(n, 0);
            ops = loads = forwards = 0;
            auto retire = [&](uint64_t s) {
                if (is_store[s] && issued[s]) {
                    sq.commit(s);
                    ++ops;
                }
            };
            for (const PipeEvent &e : rec.events) {
                if (e.seq >= n)
                    continue;
                const auto &op = e.op;
                if (!e.issue) {
                    if (op.isStore()) {
                        sq.dispatch(e.seq, op.mem_addr, op.mem_size);
                        ++ops;
                    }
                    continue;
                }
                if (op.isStore()) {
                    sq.markIssued(e.seq);
                    issued[e.seq] = 1;
                    ++ops;
                } else if (op.isLoad()) {
                    bool blocked = sq.olderStoreUnissued(e.seq);
                    bool forwarded = sq.forwardFrom(e.seq, op.mem_addr,
                                                    op.mem_size)
                                         .has_value();
                    forwards += !blocked && forwarded;
                    ops += 2;
                    ++loads;
                }
                ret.issue(e.seq, retire);
            }
        });
        add(costs, "lsq", t, ops, forwards, loads);
    }
}

} // namespace perfbench
