/**
 * @file
 * Component replays: host cost per operation of each pipeline
 * structure under real access patterns.
 *
 * A recording runs one (configuration, input) pair through a real
 * cesp::uarch::Pipeline with its dispatch and issue observers attached and
 * keeps the dispatch/issue event sequence; the conditional-branch
 * and load/store address streams come from the same trace records.
 * Each replay then drives one component class — Gshare, Cache,
 * RenameState, Steering::decide, FifoSet, IssueWindow,
 * WakeupCalendar, StoreQueue — with exactly that stream, outside the
 * pipeline, and reports ns per operation, the operation count, and a
 * useful-outcome ratio where the component has one.
 *
 * Commit is not observable from outside the pipeline; replays that
 * need it (register release, store-queue retirement) retire issued
 * instructions in program order, which is how commit retires them.
 */

#ifndef PERFBENCH_REPLAY_HPP
#define PERFBENCH_REPLAY_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "trace/trace.hpp"
#include "uarch/config.hpp"

namespace perfbench {

/** One observed pipeline event. */
struct PipeEvent
{
    bool issue = false;       //!< false: dispatch
    bool new_fifo = false;    //!< dispatch that opened an empty FIFO
    int16_t fifo = -1;        //!< real or conceptual FIFO id
    int16_t cluster = -1;
    uint64_t seq = 0;
    uint64_t cycle = 0;       //!< dispatch or issue cycle
    uint64_t issue_cycle = 0; //!< dispatch events: when it issued
    uint64_t complete = 0;    //!< issue events: result cycle
    cesp::trace::TraceOp op;
};

struct Recording
{
    cesp::uarch::SimConfig cfg;
    cesp::trace::TraceView records;      //!< the simulated prefix
    std::vector<PipeEvent> events; //!< in simulation order
};

/** Simulate the first @p max_insts records of @p input on @p cfg
 *  with observers attached. */
Recording record(const cesp::uarch::SimConfig &cfg,
                 cesp::trace::TraceView input, uint64_t max_insts);

/** Accumulated cost of one component over all replays. */
struct ComponentCost
{
    double seconds = 0.0; //!< median replay time, summed over replays
    uint64_t ops = 0;
    uint64_t useful = 0;  //!< numerator of the useful-outcome ratio
    uint64_t tries = 0;   //!< its denominator
};

/** Per-component totals keyed by component name ("bpred", "mem",
 *  "rename", "steer", "fifo", "window", "wakeup", "lsq"). */
using ReplayCosts = std::map<std::string, ComponentCost>;

/** Replay @p rec into every component that its configuration has,
 *  @p reps times each (median time kept), adding to @p costs. */
void replayAll(const Recording &rec, int reps, SpanRecorder &spans,
               ReplayCosts &costs);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HPP
