// Self-tests of the benchmark's own arithmetic and gates. Run from
// the repository root (ctest sets the working directory) so the
// golden files resolve.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "context.hpp"
#include "core/machine.hpp"
#include "core/presets.hpp"
#include "golden.hpp"
#include "measure.hpp"
#include "spans.hpp"
#include "uarch/pipeline.hpp"
#include "workloads.hpp"

using namespace perfbench;

TEST(Measure, OrderStatistics)
{
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Measure, RatesUseTheGivenWallTime)
{
    EXPECT_DOUBLE_EQ(perSecond(37.27e6, 10.0), 3.727e6);
    EXPECT_DOUBLE_EQ(perSecond(1.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(nsPerOp(2.0, 1'000'000'000), 2.0);
    EXPECT_DOUBLE_EQ(nsPerOp(1.0, 0), 0.0);
    // A host twice as slow as the reference halves to reference time.
    EXPECT_DOUBLE_EQ(atReferenceHost(10.0, 2 * kReferenceCalibMs), 5.0);
    EXPECT_DOUBLE_EQ(atReferenceHost(10.0, kReferenceCalibMs), 10.0);
    EXPECT_DOUBLE_EQ(atReferenceHost(10.0, 0.0), 0.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    std::vector<Span> s(5);
    s[0] = {"root", 0.0, 10.0, -1, -1, ""};
    s[1] = {"a", 1.0, 4.0, 0, -1, ""};
    s[2] = {"b", 3.0, 6.0, 0, -1, ""}; // overlaps a (another thread)
    s[3] = {"c", 9.0, 12.0, 0, -1, ""}; // clipped to the parent
    s[4] = {"a.child", 2.0, 3.0, 1, -1, ""};
    std::vector<double> self = selfTimes(s);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[4], 1.0);
    auto totals = totalsByName(s);
    EXPECT_EQ(totals["a"].count, 1u);
    EXPECT_DOUBLE_EQ(totals["root"].total, 10.0);
}

TEST(Spans, NestingFollowsTheCallingThread)
{
    SpanRecorder rec(true);
    {
        ScopedSpan outer(rec, "outer");
        ScopedSpan inner(rec, "inner");
    }
    auto all = rec.spans();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[1].parent, 0);
    EXPECT_LE(all[0].start, all[1].start);
    EXPECT_GE(all[0].end, all[1].end);
    SpanRecorder off(false);
    {
        ScopedSpan s(off, "x");
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(Plans, SeedReachesOnlySyntheticSweep)
{
    for (const std::string &name : workloadNames()) {
        Plan a, b;
        ASSERT_TRUE(planWorkload(name, 1, 4, a));
        ASSERT_TRUE(planWorkload(name, 2, 4, b));
        bool differ = a.synthetic.size() != b.synthetic.size();
        for (size_t i = 0; !differ && i < a.synthetic.size(); ++i)
            differ = a.synthetic[i].seed != b.synthetic[i].seed;
        EXPECT_EQ(differ, name == "synthetic_sweep") << name;
        EXPECT_EQ(a.presets, b.presets);
        EXPECT_EQ(a.kernels, b.kernels);
        EXPECT_EQ(a.jobs, b.jobs);
        EXPECT_EQ(a.shards, b.shards);
    }
    Plan p;
    EXPECT_FALSE(planWorkload("nope", 1, 4, p));
    // Golden values exist only for the seed they were made with.
    ASSERT_TRUE(planWorkload("synthetic_sweep", kDefaultSeed, 4, p));
    EXPECT_FALSE(p.golden.empty());
    ASSERT_TRUE(planWorkload("synthetic_sweep", kDefaultSeed + 1, 4, p));
    EXPECT_TRUE(p.golden.empty());
}

TEST(Plans, WorkersNeverExceedUsableCpus)
{
    Plan p;
    ASSERT_TRUE(planWorkload("sharded_stream", 1, 3, p));
    EXPECT_EQ(p.jobs, 3u);
    ASSERT_TRUE(planWorkload("paper_sweep", 1, 3, p));
    EXPECT_EQ(p.jobs, 1u);
}

TEST(Golden, PerturbedConfigurationCountsAsAFailure)
{
    setenv("CESP_TRACE_CACHE", "off", 1);
    std::vector<cesp::StatGroup> golden =
        loadGolden("perfbench/golden/paper_sweep.json");
    ASSERT_EQ(golden.size(), 56u);
    // Task 0 is baseline / compress.
    cesp::trace::TraceView view =
        cesp::core::cachedWorkloadTraceView("compress");
    cesp::uarch::SimConfig cfg = cesp::core::baseline8Way();
    cesp::trace::TraceCursor c1(view);
    auto good = cesp::uarch::simulate(cfg, c1);
    Tally tally;
    tally.record("baseline", checkSimulation(good.group(), view.count,
                                             &golden[0]));
    cfg.window_size = 63;
    cesp::trace::TraceCursor c2(view);
    auto bad = cesp::uarch::simulate(cfg, c2);
    tally.record("window63", checkSimulation(bad.group(), view.count,
                                             &golden[0]));
    EXPECT_EQ(tally.attempted, 2u);
    EXPECT_EQ(tally.failed, 1u);
    ASSERT_EQ(tally.reasons.size(), 1u);
    EXPECT_NE(tally.reasons[0].find("window63"), std::string::npos);
    // A short count fails even without golden values.
    EXPECT_FALSE(
        checkSimulation(good.group(), view.count + 1, nullptr).empty());
}

TEST(Schema, BenchmarkJsonListsEveryLayerMetric)
{
    std::ifstream f("BENCHMARK.json");
    ASSERT_TRUE(f.good());
    std::stringstream ss;
    ss << f.rdbuf();
    std::string text = ss.str();
    for (const Metric &m : layerSchema())
        EXPECT_NE(text.find("\"" + m.name + "\""), std::string::npos)
            << m.name;
}
