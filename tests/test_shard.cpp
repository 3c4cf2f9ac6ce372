/**
 * @file
 * Tests of sharded trace simulation: the planShards partition
 * algebra, the warmup measurement boundary inside Pipeline::run, the
 * exactness contract (1 shard, no warmup == the monolithic run, bit
 * for bit), determinism across worker counts, and the convergence
 * property that makes sharding useful — K-shard merged IPC
 * approaches the monolithic IPC as the warmup prefix grows.
 *
 * This suite carries the "tsan" ctest label: sharded core::run fans
 * shard simulations out over the shared-cursor pool, so the preset
 * re-runs it under race detection.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/presets.hpp"
#include "core/sweep.hpp"
#include "trace/synthetic.hpp"
#include "uarch/pipeline.hpp"

using namespace cesp;
using core::ShardSpec;
using core::SweepTask;
using uarch::SimStats;

namespace {

trace::TraceBuffer
synthetic(uint64_t seed, uint64_t n)
{
    return trace::generateSynthetic({.seed = seed}, n);
}

SimStats
monolithic(const uarch::SimConfig &cfg, trace::TraceView tv,
           uint64_t warmup = 0)
{
    uarch::RunLimits lim;
    lim.warmup = warmup;
    return uarch::simulate(cfg, tv, lim);
}

/** One (cfg, trace) pair sharded K ways through core::run: stats
 *  holds the per-shard windows in plan order, groups[0] their merge. */
core::RunResult
sharded(const uarch::SimConfig &cfg, trace::TraceView tv, unsigned k,
        uint64_t warmup, unsigned jobs)
{
    core::RunOptions opt;
    opt.jobs = jobs;
    opt.shards = k;
    opt.warmup = warmup;
    return core::run({{cfg, tv}}, opt);
}

/** Assert the plan's measured windows partition [0, count). */
void
expectPartition(const std::vector<ShardSpec> &plan, size_t count)
{
    ASSERT_FALSE(plan.empty());
    size_t expect_begin = 0;
    size_t max_len = 0, min_len = SIZE_MAX;
    for (const ShardSpec &s : plan) {
        size_t measure_begin = s.begin + s.warmup;
        EXPECT_EQ(measure_begin, expect_begin);
        ASSERT_GE(s.end, measure_begin);
        size_t len = s.end - measure_begin;
        max_len = std::max(max_len, len);
        min_len = std::min(min_len, len);
        expect_begin = s.end;
    }
    EXPECT_EQ(expect_begin, count);
    if (count) {
        EXPECT_LE(max_len - min_len, 1u);
    }
}

} // namespace

// ---------------------------------------------------------------------
// planShards

TEST(PlanShards, EvenContiguousPartition)
{
    for (size_t count : {1u, 7u, 64u, 1000u, 1001u}) {
        for (unsigned k : {1u, 2u, 3u, 8u, 63u}) {
            auto plan = core::planShards(count, k, 0);
            EXPECT_EQ(plan.size(),
                      std::min<size_t>(k ? k : 1, count));
            expectPartition(plan, count);
        }
    }
}

TEST(PlanShards, WarmupClampedToAvailablePrefix)
{
    auto plan = core::planShards(1000, 4, 300);
    ASSERT_EQ(plan.size(), 4u);
    // Shard 0 has nothing before it; shard 1's window starts at 250,
    // so only 250 records of prefix exist.
    EXPECT_EQ(plan[0].warmup, 0u);
    EXPECT_EQ(plan[0].begin, 0u);
    EXPECT_EQ(plan[1].warmup, 250u);
    EXPECT_EQ(plan[1].begin, 0u);
    EXPECT_EQ(plan[2].warmup, 300u);
    EXPECT_EQ(plan[2].begin, 200u);
    EXPECT_EQ(plan[3].warmup, 300u);
    EXPECT_EQ(plan[3].begin, 450u);
    expectPartition(plan, 1000);
}

TEST(PlanShards, DegenerateInputsClampDeterministically)
{
    // shards == 0 plans like 1.
    auto zero = core::planShards(100, 0, 0);
    ASSERT_EQ(zero.size(), 1u);
    EXPECT_EQ(zero[0].begin, 0u);
    EXPECT_EQ(zero[0].end, 100u);

    // More shards than records: one record per shard.
    auto many = core::planShards(5, 64, 0);
    ASSERT_EQ(many.size(), 5u);
    expectPartition(many, 5);

    // Empty trace: a single empty shard, not an empty plan.
    auto empty = core::planShards(0, 8, 1000);
    ASSERT_EQ(empty.size(), 1u);
    EXPECT_EQ(empty[0].begin, 0u);
    EXPECT_EQ(empty[0].end, 0u);
    EXPECT_EQ(empty[0].warmup, 0u);
}

// ---------------------------------------------------------------------
// TraceView slicing

TEST(TraceViewSlice, SharesStorageZeroCopy)
{
    trace::TraceBuffer buf = synthetic(11, 100);
    trace::TraceView whole(buf);
    trace::TraceView mid = whole.slice(40, 20);
    EXPECT_EQ(mid.count, 20u);
    EXPECT_EQ(mid.records, whole.records + 40);
    EXPECT_EQ(mid[0].pc, whole[40].pc);

    EXPECT_EQ(whole.slice(100, 0).count, 0u);
    EXPECT_EQ(whole.slice(0, 100).records, whole.records);
}

TEST(TraceViewSlice, OutOfRangeIsFatal)
{
    trace::TraceBuffer buf = synthetic(11, 10);
    trace::TraceView whole(buf);
    EXPECT_DEATH(whole.slice(0, 11), "outside");
    EXPECT_DEATH(whole.slice(11, 0), "outside");
    EXPECT_DEATH(whole.slice(6, 5), "outside");
}

// ---------------------------------------------------------------------
// Warmup inside Pipeline::run

TEST(Warmup, ZeroWarmupIsBitIdentical)
{
    trace::TraceBuffer buf = synthetic(21, 8000);
    for (const uarch::SimConfig &cfg :
         {core::baseline8Way(), core::dependence8x8()}) {
        SimStats plain = monolithic(cfg, buf);
        SimStats warm0 = monolithic(cfg, buf, 0);
        EXPECT_TRUE(plain.group().sameValues(warm0.group()))
            << cfg.name << ":\n"
            << plain.group().diff(warm0.group());
    }
}

TEST(Warmup, MeasuresOnlyPostBoundaryCommits)
{
    trace::TraceBuffer buf = synthetic(22, 8000);
    SimStats s = monolithic(core::baseline8Way(), buf, 3000);
    EXPECT_EQ(s.committed(), 5000u);
    // The measured region is a strict suffix of the run.
    SimStats whole = monolithic(core::baseline8Way(), buf);
    EXPECT_LT(s.cycles(), whole.cycles());
    EXPECT_GT(s.cycles(), 0u);
    // Derived metrics recompute over the measured region only.
    EXPECT_NEAR(s.ipc(),
                5000.0 / static_cast<double>(s.cycles()), 1e-12);
}

TEST(Warmup, TargetBeyondTraceYieldsEmptyMeasurement)
{
    trace::TraceBuffer buf = synthetic(23, 1000);
    SimStats s = monolithic(core::baseline8Way(), buf, 5000);
    EXPECT_EQ(s.committed(), 0u);
    EXPECT_EQ(s.cycles(), 0u);
    EXPECT_EQ(s.fetched(), 0u);
}

// ---------------------------------------------------------------------
// Sharded core::run

TEST(Sharded, OneShardNoWarmupEqualsMonolithic)
{
    trace::TraceBuffer buf = synthetic(31, 10000);
    for (const uarch::SimConfig &cfg :
         {core::baseline8Way(), core::dependence8x8(),
          core::clusteredDependence2x4()}) {
        core::RunResult run = sharded(cfg, buf, 1, 0, 1);
        ASSERT_EQ(run.stats.size(), 1u);
        SimStats direct = monolithic(cfg, buf);
        // Bit-identity of the acceptance contract: sameValues spans
        // every counter, gauge, and histogram bucket.
        EXPECT_TRUE(
            run.stats[0].group().sameValues(direct.group()))
            << cfg.name << ":\n"
            << run.stats[0].group().diff(direct.group());
        EXPECT_TRUE(run.groups[0].sameValues(direct.group()))
            << cfg.name;
    }
}

TEST(Sharded, MergedCommitCountIsExactForAnyShardingAndWarmup)
{
    trace::TraceBuffer buf = synthetic(32, 9001);
    for (unsigned k : {2u, 5u, 8u}) {
        for (uint64_t w : {0u, 100u, 5000u}) {
            core::RunResult run =
                sharded(core::baseline8Way(), buf, k, w, 2);
            ASSERT_EQ(run.stats.size(), k);
            // Measured windows partition the trace, so the merged
            // commit count is the whole trace regardless of K and W.
            EXPECT_EQ(run.groups[0].counter("committed"), 9001u)
                << "K=" << k << " W=" << w;
        }
    }
}

TEST(Sharded, DeterministicAcrossWorkerCounts)
{
    trace::TraceBuffer buf = synthetic(33, 12000);
    core::RunResult one =
        sharded(core::dependence8x8(), buf, 6, 500, 1);
    for (unsigned jobs : {2u, 4u}) {
        core::RunResult par =
            sharded(core::dependence8x8(), buf, 6, 500, jobs);
        ASSERT_EQ(par.stats.size(), one.stats.size());
        for (size_t i = 0; i < one.stats.size(); ++i)
            EXPECT_TRUE(par.stats[i].group().sameValues(
                one.stats[i].group()))
                << "shard " << i << " with " << jobs << " workers";
        EXPECT_TRUE(par.groups[0].sameValues(one.groups[0]));
    }
}

TEST(Sharded, BatchMatchesIndividualRuns)
{
    trace::TraceBuffer a = synthetic(34, 6000);
    trace::TraceBuffer b = synthetic(35, 6000);
    std::vector<SweepTask> pairs = {
        {core::baseline8Way(), a},
        {core::dependence8x8(), b},
    };
    core::RunOptions opt;
    opt.jobs = 2;
    opt.shards = 4;
    opt.warmup = 200;
    std::vector<StatGroup> merged =
        std::move(core::run(pairs, opt).groups);
    ASSERT_EQ(merged.size(), 2u);
    EXPECT_EQ(merged[0].label(), core::baseline8Way().name);
    EXPECT_EQ(merged[1].label(), core::dependence8x8().name);
    for (size_t p = 0; p < pairs.size(); ++p) {
        core::RunResult solo =
            sharded(pairs[p].cfg, pairs[p].trace, 4, 200, 1);
        EXPECT_TRUE(merged[p].sameValues(solo.groups[0])) << p;
    }
}

TEST(Sharded, EmptyTraceYieldsZeroStats)
{
    core::RunResult run = sharded(
        core::baseline8Way(), trace::TraceView(), 8, 1000, 2);
    ASSERT_EQ(run.stats.size(), 1u);
    EXPECT_EQ(run.groups[0].counter("committed"), 0u);
}

// ---------------------------------------------------------------------
// The property that justifies the whole mechanism: sampled (sharded,
// warmed-up) simulation converges on the monolithic IPC.

TEST(ShardedConvergence, WarmupBoundsIpcError)
{
    trace::TraceBuffer buf = synthetic(41, 60000);
    const uarch::SimConfig cfg = core::baseline8Way();
    const double mono = monolithic(cfg, buf).ipc();
    ASSERT_GT(mono, 0.0);

    // Cold sharding errs badly (each window restarts bpred/caches/
    // rename from scratch; measured here, 6-21% depending on K). The
    // slowest-warming state is the data cache, which needs tens of
    // thousands of accesses to refill — so the warmed run uses a
    // warmup sized for that, not just for the branch predictor.
    for (unsigned k : {2u, 4u, 8u}) {
        double cold = std::fabs(
            sharded(cfg, buf, k, 0, 2)
                .groups[0].value("ipc") - mono) / mono;
        double warm = std::fabs(
            sharded(cfg, buf, k, 20000, 2)
                .groups[0].value("ipc") - mono) / mono;
        // 2% is the acceptance tolerance for the bundled workloads.
        EXPECT_LT(warm, 0.02) << "K=" << k;
        // Warming up must improve on cold sharding outright (the
        // margin is wide: cold is several times the tolerance).
        EXPECT_LT(warm, cold) << "K=" << k;
    }
}
