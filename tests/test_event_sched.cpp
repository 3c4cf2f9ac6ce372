/**
 * @file
 * Equivalence tests between the event-driven issue model and the
 * reference per-cycle scan. The two must be cycle- and
 * statistic-exact for every machine organization: event-driven wakeup
 * is a simulator implementation technique, not a model change.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/machine.hpp"
#include "core/presets.hpp"
#include "trace/synthetic.hpp"
#include "uarch/pipeline.hpp"

using namespace cesp;
using uarch::IssueModel;
using uarch::SelectPolicy;
using uarch::SimConfig;
using uarch::SimStats;

namespace {

SimStats
runWith(SimConfig cfg, IssueModel model, uint64_t trace_seed,
        uint64_t instructions = 20000)
{
    cfg.issue_model = model;
    trace::SyntheticParams sp;
    sp.seed = trace_seed;
    trace::TraceBuffer buf = trace::generateSynthetic(sp, instructions);
    return uarch::simulate(cfg, buf);
}

/**
 * Whole-stats equality through the metrics registry: sameValues
 * compares every registered counter, gauge, and histogram bucket
 * (including per-cluster counters and histogram under/overflow), so
 * a statistic added to SimStats is automatically part of the
 * equivalence contract.
 */
void
expectExact(const SimConfig &cfg, uint64_t trace_seed)
{
    SimStats ev = runWith(cfg, IssueModel::EventDriven, trace_seed);
    SimStats scan = runWith(cfg, IssueModel::LegacyScan, trace_seed);
    EXPECT_TRUE(ev.group().sameValues(scan.group()))
        << "config " << cfg.name << " trace seed " << trace_seed
        << "\n" << ev.group().diff(scan.group());
}

} // namespace

/** The Figure 17 organization set plus the FIFO and scaled presets,
 *  three trace seeds each. */
TEST(EventSched, ExactAcrossPresetsAndSeeds)
{
    std::vector<SimConfig> configs = core::figure17Configs();
    configs.push_back(core::dependence8x8());
    configs.push_back(core::scaledBaseline(4));
    configs.push_back(core::scaledDependence(4));
    configs.push_back(core::baseline16Way());
    configs.push_back(core::clusteredDependence4x4());
    for (const SimConfig &cfg : configs)
        for (uint64_t seed : {1ULL, 7ULL, 99ULL})
            expectExact(cfg, seed);
}

/** tomcatv's first 100,000 records on every sweep preset: the
 *  synthetic traces and the seven kernels write no FP register, so
 *  only this row renames and frees FP physical registers. */
TEST(EventSched, ExactOnFpKernelAcrossPresets)
{
    uarch::RunLimits limits;
    limits.max_instructions = 100000;
    trace::TraceView trace = core::cachedWorkloadTraceView("tomcatv");
    for (const core::NamedPreset &p : core::sweepPresets()) {
        SimConfig cfg = p.make();
        cfg.issue_model = IssueModel::EventDriven;
        SimStats ev = uarch::simulate(cfg, trace, limits);
        cfg.issue_model = IssueModel::LegacyScan;
        SimStats scan = uarch::simulate(cfg, trace, limits);
        EXPECT_TRUE(ev.group().sameValues(scan.group()))
            << "preset " << p.name << "\n"
            << ev.group().diff(scan.group());
    }
}

/** Every select policy on windows and FIFOs. Only oldest-first runs
 *  event-driven: the youngest-first and random rows compare the scan
 *  with itself, and ScanOnlyMachinesMatchRecordedCycles pins their
 *  results. */
TEST(EventSched, ExactAcrossSelectPolicies)
{
    for (SelectPolicy pol : {SelectPolicy::OldestFirst,
                             SelectPolicy::YoungestFirst,
                             SelectPolicy::Random}) {
        SimConfig w = core::baseline8Way();
        w.select_policy = pol;
        expectExact(w, 3);

        SimConfig f = core::dependence8x8();
        f.select_policy = pol;
        expectExact(f, 3);
    }
}

/** Both central-window orders (age-compacted and slot-priority),
 *  each oldest- and youngest-first. Only the age-compacted
 *  oldest-first row runs event-driven; the other three compare the
 *  scan with itself, and ScanOnlyMachinesMatchRecordedCycles pins
 *  them. */
TEST(EventSched, ExactForBothWindowOrders)
{
    for (bool compaction : {true, false}) {
        SimConfig c = core::baseline8Way();
        c.window_compaction = compaction;
        expectExact(c, 11);
        c.select_policy = SelectPolicy::YoungestFirst;
        expectExact(c, 11);
    }
}

/** 1-, 2-, and 4-cluster machines across buffer styles. */
TEST(EventSched, ExactAcrossClusterCounts)
{
    expectExact(core::baseline8Way(), 5);
    expectExact(core::clusteredDependence2x4(), 5);
    expectExact(core::clusteredWindows2x4(), 5);
    expectExact(core::clusteredExecDriven2x4(), 5);
    expectExact(core::clusteredRandom2x4(), 5);
    expectExact(core::clusteredDependence4x4(), 5);
}

/** The acceptance configuration: 8-way over a 128-entry window. */
TEST(EventSched, ExactAt8Way128Entry)
{
    SimConfig c = core::baseline8Way();
    c.window_size = 128;
    for (uint64_t seed : {1ULL, 7ULL, 99ULL})
        expectExact(c, seed);
}

/** Deep wakeup/select pipelines and slow bypass networks. */
TEST(EventSched, ExactWithDelayedWakeupAndBypass)
{
    SimConfig c = core::clusteredDependence2x4();
    c.wakeup_select_stages = 2;
    c.inter_cluster_extra = 3;
    expectExact(c, 13);

    SimConfig b = core::baseline8Way();
    b.local_bypass_extra = 1;
    b.wakeup_select_stages = 3;
    expectExact(b, 13);
}

/** In-order issue never runs event-driven, so this compares the scan
 *  with itself; ScanOnlyMachinesMatchRecordedCycles pins its
 *  results. */
TEST(EventSched, ExactForInOrderIssue)
{
    SimConfig c = core::baseline8Way();
    c.in_order_issue = true;
    expectExact(c, 17);
}

/** Random and youngest-first selection, slot-priority windows and
 *  in-order issue run the scan under either issue model, so equality
 *  with the event path pins nothing for them. Their cycle counts on
 *  20,000-record synthetic traces are recorded instead: the scan's
 *  candidate order (ascending seq or window slot, reversed for
 *  youngest-first, and with it Random's draws) must not move. The
 *  youngest-first and slot-priority counts were recorded while the
 *  event path still served those orders and matched the scan. */
TEST(EventSched, ScanOnlyMachinesMatchRecordedCycles)
{
    struct Row
    {
        SimConfig cfg;
        uint64_t seed;
        uint64_t cycles;
    };
    auto random = [](SimConfig c) {
        c.select_policy = SelectPolicy::Random;
        return c;
    };
    auto in_order = [](SimConfig c) {
        c.in_order_issue = true;
        return c;
    };
    auto youngest = [](SimConfig c) {
        c.select_policy = SelectPolicy::YoungestFirst;
        return c;
    };
    auto slots = [](SimConfig c) {
        c.window_compaction = false;
        return c;
    };
    auto slots100 = [&](SimConfig c) {
        c = slots(c);
        c.window_size = 100;
        c.max_inflight = 130;
        return c;
    };
    const Row rows[] = {
        {random(core::baseline8Way()), 3, 12309},
        {random(core::dependence8x8()), 3, 12325},
        {random(core::clusteredWindows2x4()), 3, 12821},
        {in_order(core::baseline8Way()), 17, 14443},
        {in_order(core::scaledBaseline(4)), 17, 14869},
        {youngest(core::baseline8Way()), 3, 12529},
        {youngest(core::dependence8x8()), 3, 12560},
        {youngest(core::clusteredWindows2x4()), 3, 12947},
        {slots(core::baseline8Way()), 11, 11852},
        {youngest(slots(core::baseline8Way())), 11, 12064},
        {slots100(core::baseline8Way()), 3, 12167},
        {slots100(core::baseline8Way()), 37, 11060},
        {youngest(slots100(core::baseline8Way())), 3, 12428},
        {youngest(slots100(core::baseline8Way())), 37, 11372},
    };
    for (const Row &r : rows)
        EXPECT_EQ(runWith(r.cfg, IssueModel::EventDriven, r.seed).cycles(),
                  r.cycles)
            << "config " << r.cfg.name << " trace seed " << r.seed;
}

/** Long idle stretches around memory latencies: an L2-backed
 *  machine with a tiny L1 forces multi-ten-cycle stalls where fetch
 *  is blocked and nothing is ready, so the event path drains empty
 *  wheel slots for many cycles in a row and must still match the
 *  scan. */
TEST(EventSched, IdleSkipExactAroundMemoryLatencies)
{
    SimConfig c = core::baseline8Way();
    c.dcache.size_bytes = 1024; // thrash the L1
    c.dcache.miss_latency = 40;
    c.l2.enabled = true;
    c.l2.memory_latency = 80;
    for (uint64_t seed : {2ULL, 21ULL})
        expectExact(c, seed);
}

/** The same over fetch stalls on mispredicted branches resolved by
 *  long-latency producers. */
TEST(EventSched, IdleSkipExactAroundBranchStalls)
{
    SimConfig c = core::baseline8Way();
    c.bpred.kind = uarch::BpredKind::NeverTaken; // frequent stalls
    c.dcache.miss_latency = 30;
    expectExact(c, 23);
}

/** ROB sizes that are not a power of two or fit in less than one
 *  64-bit ready-bitmap word. Age-ordered select walks the age slots
 *  from the head's and wraps at the last one; a walk that wraps
 *  anywhere else (say, at the next word boundary) reorders candidates
 *  and breaks parity. Only the oldest-first, age-compacted rows run
 *  event-driven; the youngest-first and slot-priority rows compare
 *  the scan with itself. */
TEST(EventSched, ExactAtAwkwardRobSizes)
{
    for (int rob : {8, 48, 100, 130}) {
        for (SelectPolicy pol : {SelectPolicy::OldestFirst,
                                 SelectPolicy::YoungestFirst}) {
            for (bool compaction : {true, false}) {
                SimConfig w = core::baseline8Way();
                w.max_inflight = rob;
                w.select_policy = pol;
                w.window_compaction = compaction;
                expectExact(w, 29);
            }
            SimConfig f = core::dependence8x8();
            f.max_inflight = rob;
            f.select_policy = pol;
            expectExact(f, 29);

            SimConfig cw = core::clusteredWindows2x4();
            cw.max_inflight = rob;
            cw.select_policy = pol;
            expectExact(cw, 29);
        }
    }
}

/** A slot-priority window of 100 slots over a 130-entry ROB, under
 *  both select directions. Slot-priority windows run the scan under
 *  either issue model, so this compares the scan with itself;
 *  ScanOnlyMachinesMatchRecordedCycles pins all four runs. */
TEST(EventSched, ExactForSlotPriorityWindowOf100)
{
    for (SelectPolicy pol : {SelectPolicy::OldestFirst,
                             SelectPolicy::YoungestFirst}) {
        SimConfig c = core::baseline8Way();
        c.window_compaction = false;
        c.window_size = 100;
        c.max_inflight = 130;
        c.select_policy = pol;
        for (uint64_t seed : {3ULL, 37ULL})
            expectExact(c, seed);
    }
}

/** Degenerate FIFO shapes: one FIFO per cluster, FIFOs one or two
 *  deep, and a three-stage wakeup+select loop. A chained successor's
 *  wakeup is scheduled only once its producer, the head ahead of it,
 *  has issued and left, so the head check at scheduling holds and the
 *  wakeup itself makes the new head selectable. */
TEST(EventSched, ExactAcrossFifoShapes)
{
    for (SimConfig base : {core::dependence8x8(),
                           core::clusteredDependence2x4()}) {
        for (int depth : {1, 2}) {
            SimConfig c = base;
            c.fifo_depth = depth;
            c.fifos_per_cluster = 1;
            c.wakeup_select_stages = 3;
            for (uint64_t seed : {5ULL, 41ULL})
                expectExact(c, seed);
        }
    }
}

/** Fetched instructions wait in the ROB ring's slots past the tail,
 *  so the ring spans max_inflight + fetch_queue seqs while the ready
 *  bitmap keeps one bit per in-flight age slot. Fetch queues from one
 *  fetch group to deeper than the ROB, over ROBs smaller than, equal
 *  to and just past a power of two, must leave both issue models
 *  exact, including clusters chosen at issue, whose wakeup cycle is
 *  not kept in DynInst::ready_at. */
TEST(EventSched, ExactAcrossFetchQueueShapes)
{
    for (SimConfig base :
         {core::baseline8Way(), core::dependence8x8(),
          core::clusteredWindows2x4(), core::clusteredExecDriven2x4()}) {
        for (int fetch_queue : {base.fetch_width, 24, 200}) {
            for (int inflight : {8, 100, 128, 130}) {
                SimConfig c = base;
                c.fetch_queue = fetch_queue;
                c.max_inflight = inflight;
                expectExact(c, 47);
            }
        }
    }
    SimConfig deep = core::clusteredDependence2x4();
    deep.fetch_queue = 200;
    deep.max_inflight = 100;
    deep.wakeup_select_stages = 3;
    expectExact(deep, 47);
}

/** The wakeup wheel's span is a power of two beyond the farthest
 *  wakeup (the slowest latency plus the largest ready offset). Miss
 *  latencies of 7, 15 and 31 put a one-cluster machine's farthest
 *  wakeups in the last slot of its 8-, 16- and 32-slot wheel, and 16
 *  opens a 32-slot one; an inter-cluster hop puts each a cycle
 *  further. The machines cover age-slot ready bits, FIFO heads, an
 *  inter-cluster hop, and clusters chosen at issue. The slot-priority
 *  window (`slots`) runs the scan under either issue model, so its
 *  rows compare the scan with itself. */
TEST(EventSched, ExactAcrossWakeupWheelSpans)
{
    SimConfig slots = core::baseline8Way();
    slots.window_compaction = false;
    for (SimConfig base :
         {core::baseline8Way(), slots, core::dependence8x8(),
          core::clusteredDependence2x4(),
          core::clusteredExecDriven2x4()}) {
        for (int miss : {7, 15, 16, 31}) {
            SimConfig c = base;
            c.dcache.size_bytes = 1024; // thrash the L1
            c.dcache.miss_latency = miss;
            expectExact(c, 43);
        }
    }
}
