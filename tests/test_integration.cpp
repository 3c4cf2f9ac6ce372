/**
 * @file
 * Integration tests: the paper's cross-configuration findings at the
 * shape level (who wins, roughly by how much), asserted on what the
 * specs of Figures 13, 15 and 17 and Section 5.5 report (summary
 * gauges, and their runs' raw counters). EXPERIMENTS.md records them.
 */

#include <gtest/gtest.h>

#include "core/presets.hpp"
#include "experiments.hpp"
#include "func/emulator.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;
using namespace cesp::core;

namespace {

/** The four specs, in the order spec() runs them. */
enum Spec { Fig13, Fig15, Fig17, Sec55 };

/** One shared run of the four specs (six machines, seven workloads). */
const bench::ExperimentRun &
spec(Spec s)
{
    static const std::vector<bench::ExperimentRun> runs =
        bench::runExperiments({"fig13_dependence_ipc",
                               "fig15_clustered_ipc",
                               "fig17_clustered_variants",
                               "sec55_speedup"});
    return runs.at(s);
}

/** Gauge @p name of the summary group spec @p s reports. */
double
gauge(Spec s, const std::string &name)
{
    const bench::Report &out = spec(s).report;
    return (s == Sec55 ? out.groups : out.summary).at(0).value(name);
}

/** Figure 17's IPC degradation (%) of @p org on workload @p w. */
double
fig17(const std::string &org, const std::string &w)
{
    return gauge(Fig17, org + "." + w + ".degradation_pct");
}

/** The mean of fig17(@p org, w) over the workloads. */
double
fig17Mean(const std::string &org)
{
    double sum = 0.0;
    for (const std::string &w : workloads::workloadNames())
        sum += fig17(org, w);
    return sum / static_cast<double>(workloads::workloadNames().size());
}

/** Figure 17's run of organization @p org on workload @p w. */
const uarch::SimStats &
fig17Run(const std::string &org, size_t w)
{
    const Grid &g = spec(Fig17).grid;
    size_t c = 0;
    while (g.configs.at(c).name != org)
        ++c;
    return g.at(c, w);
}

} // namespace

TEST(Integration, BaselineIpcInPlausibleSuperscalarRange)
{
    // Figure 13's baseline bars sit between ~2 and ~4 IPC.
    const Grid &g = spec(Fig13).grid;
    for (size_t w = 0; w < g.workloads.size(); ++w) {
        double ipc = g.at(0, w).ipc();
        EXPECT_GT(ipc, 1.0) << g.workloads[w];
        EXPECT_LT(ipc, 8.0) << g.workloads[w];
    }
}

TEST(Integration, Figure13DependenceBasedNearBaseline)
{
    // Paper: within 5% for five of seven, worst 8% (li). Our
    // synthetic kernels keep the shape (most benchmarks unaffected)
    // but the most parallel kernels (vortex/perl) lose up to ~16% to
    // FIFO-pool exhaustion: every benchmark within 18%, at least
    // five of seven within 5%, mean within 8%.
    int within5 = 0;
    for (const std::string &w : workloads::workloadNames()) {
        double deg = gauge(Fig13, w + ".degradation_pct");
        EXPECT_LT(deg, 18.0) << w;
        EXPECT_GT(deg, -2.0) << w;
        if (deg < 5.0)
            ++within5;
    }
    EXPECT_GE(within5, 5);
    EXPECT_LT(gauge(Fig13, "mean_degradation_pct"), 8.0);
}

TEST(Integration, Figure15ClusteredDependenceDegradesModestly)
{
    // Paper: average 6.3% IPC degradation, worst ~12%.
    for (const std::string &w : workloads::workloadNames()) {
        double deg = gauge(Fig15, w + ".degradation_pct");
        EXPECT_LT(deg, 22.0) << w;
        EXPECT_GT(deg, -2.0) << w;
    }
    double mean = gauge(Fig15, "mean_degradation_pct");
    EXPECT_LT(mean, 15.0);
    EXPECT_GT(mean, 1.0);
}

TEST(Integration, Figure17RandomSteeringIsWorst)
{
    // Paper: 17-26% degradation, consistently the worst organization.
    double random = fig17Mean("2-cluster.windows.random_steer");
    EXPECT_GT(random, fig17Mean("2-cluster.fifos.dispatch_steer"));
    EXPECT_GT(random, fig17Mean("2-cluster.windows.dispatch_steer"));
    EXPECT_GT(random, fig17Mean("2-cluster.1window.exec_steer"));
    EXPECT_GT(random, 10.0); // at least ~10% degradation on average
}

TEST(Integration, Figure17ExecDrivenNearIdeal)
{
    // Paper: within 6% of the ideal central-window machine. Our
    // branchiest kernel (go) loses ~13% to the per-cluster FU split;
    // assert within 15% everywhere and within 8% on average.
    for (const std::string &w : workloads::workloadNames())
        EXPECT_LT(fig17("2-cluster.1window.exec_steer", w), 15.0) << w;
    EXPECT_LT(fig17Mean("2-cluster.1window.exec_steer"), 8.0);
}

TEST(Integration, Figure17DispatchSteeredWindowsCompetitive)
{
    EXPECT_LT(fig17Mean("2-cluster.windows.dispatch_steer"), 15.0);
}

TEST(Integration, Figure17BypassFrequencyAnticorrelatesWithIpc)
{
    // Paper: organizations with more inter-cluster traffic commit
    // fewer instructions per cycle; random steering is the extreme.
    auto mean_bypass = [](const std::string &org) {
        double sum = 0.0;
        size_t n = workloads::workloadNames().size();
        for (size_t w = 0; w < n; ++w)
            sum += fig17Run(org, w).interClusterPct();
        return sum / static_cast<double>(n);
    };
    double random = mean_bypass("2-cluster.windows.random_steer");
    double fifos = mean_bypass("2-cluster.fifos.dispatch_steer");
    double exec = mean_bypass("2-cluster.1window.exec_steer");
    EXPECT_GT(random, fifos);
    EXPECT_GT(random, exec);
    EXPECT_GT(random, 15.0); // paper: up to ~35%
    EXPECT_LT(exec, fifos);  // greedy issue-time choice minimizes it
}

TEST(Integration, IdealMachineHasNoInterClusterTraffic)
{
    for (size_t w = 0; w < workloads::workloadNames().size(); ++w)
        EXPECT_EQ(fig17Run("1-cluster.1window", w).intercluster_bypasses(),
                  0u) << workloads::workloadNames()[w];
}

TEST(Integration, ClusteredVariantsDoNotBeatIdeal)
{
    for (const char *org :
         {"2-cluster.fifos.dispatch_steer",
          "2-cluster.windows.dispatch_steer",
          "2-cluster.1window.exec_steer",
          "2-cluster.windows.random_steer"}) {
        for (const std::string &w : workloads::workloadNames())
            EXPECT_GE(fig17(org, w), -0.5) << org << " " << w;
    }
}

TEST(Integration, Section55SpeedupStudy)
{
    // The speedup of the 2x4 clustered dependence-based machine over
    // the 8-way window machine: IPC ratio times clock ratio.
    EXPECT_NEAR(gauge(Sec55, "clock_ratio"), 1.2526, 0.001);
    ASSERT_EQ(workloads::workloadNames().size(), 7u);
    // Paper: 10-22% speedup per benchmark, 16% average. Our IPC
    // ratios differ; assert every benchmark gains and the mean gain
    // is substantial.
    for (const std::string &w : workloads::workloadNames()) {
        double speedup = gauge(Sec55, w + ".speedup");
        EXPECT_GT(speedup, 1.0) << w;
        EXPECT_LT(speedup, 1.3) << w;
    }
    EXPECT_GT(gauge(Sec55, "mean_speedup"), 1.08);
    EXPECT_LT(gauge(Sec55, "mean_speedup"), 1.25);
}

TEST(Integration, MispredictionRatesAreSane)
{
    const Grid &g = spec(Fig13).grid;
    for (size_t w = 0; w < g.workloads.size(); ++w) {
        const uarch::SimStats &s = g.at(0, w);
        EXPECT_GT(s.cond_branches(), 1000u) << g.workloads[w];
        EXPECT_LT(s.mispredictRate(), 0.35) << g.workloads[w];
    }
}

TEST(Integration, CacheBehaviourIsSane)
{
    const Grid &g = spec(Fig13).grid;
    for (size_t w = 0; w < g.workloads.size(); ++w) {
        const uarch::SimStats &s = g.at(0, w);
        EXPECT_GT(s.dcache_accesses(), 1000u) << g.workloads[w];
        EXPECT_LT(s.dcacheMissRate(), 0.35) << g.workloads[w];
    }
}

TEST(Integration, MachineRunProgramEndToEnd)
{
    trace::TraceBuffer buf;
    func::runProgram(R"(
main:   li  t0, 0
        li  t1, 100
loop:   addi t0, t0, 1
        blt t0, t1, loop
        halt
)", 10000000, &buf);
    auto s = uarch::simulate(baseline8Way(), buf);
    EXPECT_GT(s.committed(), 200u);
    EXPECT_GT(s.ipc(), 0.5);
}
