/**
 * @file
 * Integration tests: run the benchmark workloads through every
 * machine organization and assert the paper's cross-configuration
 * findings at the shape level (who wins, roughly by how much), plus
 * the combined Section 5.5 result. These are the claims EXPERIMENTS.md
 * records.
 */

#include <gtest/gtest.h>

#include "core/presets.hpp"
#include "core/sweep.hpp"
#include "func/emulator.hpp"
#include "vlsi/clock.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;
using namespace cesp::core;

namespace {

/** One shared run of every (config, workload) pair. */
class IntegrationData
{
  public:
    static IntegrationData &
    get()
    {
        static IntegrationData d;
        return d;
    }

    const uarch::SimStats &
    stats(const std::string &config, const std::string &workload) const
    {
        size_t c = 0, w = 0;
        while (grid_.configs.at(c).name != config)
            ++c;
        while (grid_.workloads.at(w) != workload)
            ++w;
        return grid_.at(c, w);
    }

    double
    ipcRatio(const std::string &config,
             const std::string &workload) const
    {
        return stats(config, workload).ipc() /
            stats("1-cluster.1window", workload).ipc();
    }

    double
    meanIpcRatio(const std::string &config) const
    {
        double sum = 0.0;
        int n = 0;
        for (const auto &w : workloads::workloadNames()) {
            sum += ipcRatio(config, w);
            ++n;
        }
        return sum / n;
    }

  private:
    IntegrationData()
    {
        std::vector<uarch::SimConfig> configs = figure17Configs();
        configs.push_back(dependence8x8());
        grid_ = runGrid(configs, workloads::workloadNames());
    }

    Grid grid_;
};

} // namespace

TEST(Integration, BaselineIpcInPlausibleSuperscalarRange)
{
    // Figure 13's baseline bars sit between ~2 and ~4 IPC.
    auto &d = IntegrationData::get();
    for (const auto &w : workloads::workloadNames()) {
        double ipc = d.stats("1-cluster.1window", w).ipc();
        EXPECT_GT(ipc, 1.0) << w;
        EXPECT_LT(ipc, 8.0) << w;
    }
}

TEST(Integration, Figure13DependenceBasedNearBaseline)
{
    // Paper: within 5% for five of seven, worst 8% (li). Our
    // synthetic kernels keep the shape (most benchmarks unaffected)
    // but the most parallel kernels (vortex/perl) lose up to ~16% to
    // FIFO-pool exhaustion: every benchmark within 18%, at least
    // five of seven within 5%, mean within 8%.
    auto &d = IntegrationData::get();
    int within5 = 0;
    for (const auto &w : workloads::workloadNames()) {
        double r = d.ipcRatio("1-cluster.fifos.dispatch_steer", w);
        EXPECT_GT(r, 0.82) << w;
        EXPECT_LT(r, 1.02) << w;
        if (r > 0.95)
            ++within5;
    }
    EXPECT_GE(within5, 5);
    EXPECT_GT(d.meanIpcRatio("1-cluster.fifos.dispatch_steer"), 0.92);
}

TEST(Integration, Figure15ClusteredDependenceDegradesModestly)
{
    // Paper: average 6.3% IPC degradation, worst ~12%.
    auto &d = IntegrationData::get();
    for (const auto &w : workloads::workloadNames()) {
        double r = d.ipcRatio("2-cluster.fifos.dispatch_steer", w);
        EXPECT_GT(r, 0.78) << w;
        EXPECT_LT(r, 1.02) << w;
    }
    double mean = d.meanIpcRatio("2-cluster.fifos.dispatch_steer");
    EXPECT_GT(mean, 0.85);
    EXPECT_LT(mean, 0.99);
}

TEST(Integration, Figure17RandomSteeringIsWorst)
{
    // Paper: 17-26% degradation, consistently the worst organization.
    auto &d = IntegrationData::get();
    double random = d.meanIpcRatio("2-cluster.windows.random_steer");
    EXPECT_LT(random,
              d.meanIpcRatio("2-cluster.fifos.dispatch_steer"));
    EXPECT_LT(random,
              d.meanIpcRatio("2-cluster.windows.dispatch_steer"));
    EXPECT_LT(random,
              d.meanIpcRatio("2-cluster.1window.exec_steer"));
    EXPECT_LT(random, 0.90); // at least ~10% degradation on average
}

TEST(Integration, Figure17ExecDrivenNearIdeal)
{
    // Paper: within 6% of the ideal central-window machine. Our
    // branchiest kernel (go) loses ~13% to the per-cluster FU split;
    // assert within 15% everywhere and within 8% on average.
    auto &d = IntegrationData::get();
    for (const auto &w : workloads::workloadNames())
        EXPECT_GT(d.ipcRatio("2-cluster.1window.exec_steer", w),
                  0.85) << w;
    EXPECT_GT(d.meanIpcRatio("2-cluster.1window.exec_steer"), 0.92);
}

TEST(Integration, Figure17DispatchSteeredWindowsCompetitive)
{
    auto &d = IntegrationData::get();
    double win = d.meanIpcRatio("2-cluster.windows.dispatch_steer");
    EXPECT_GT(win, 0.85);
}

TEST(Integration, Figure17BypassFrequencyAnticorrelatesWithIpc)
{
    // Paper: organizations with more inter-cluster traffic commit
    // fewer instructions per cycle; random steering is the extreme.
    auto &d = IntegrationData::get();
    auto mean_bypass = [&](const std::string &cfg) {
        double sum = 0.0;
        int n = 0;
        for (const auto &w : workloads::workloadNames()) {
            sum += d.stats(cfg, w).interClusterPct();
            ++n;
        }
        return sum / n;
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
    auto &d = IntegrationData::get();
    for (const auto &w : workloads::workloadNames())
        EXPECT_EQ(d.stats("1-cluster.1window", w)
                      .intercluster_bypasses(), 0u) << w;
}

TEST(Integration, ClusteredVariantsDoNotBeatIdeal)
{
    auto &d = IntegrationData::get();
    for (const auto &cfg :
         {"2-cluster.fifos.dispatch_steer",
          "2-cluster.windows.dispatch_steer",
          "2-cluster.1window.exec_steer",
          "2-cluster.windows.random_steer"}) {
        for (const auto &w : workloads::workloadNames())
            EXPECT_LE(d.ipcRatio(cfg, w), 1.005) << cfg << " " << w;
    }
}

TEST(Integration, Section55SpeedupStudy)
{
    // The speedup of the 2x4 clustered dependence-based machine over
    // the 8-way window machine: IPC ratio times clock ratio.
    auto &d = IntegrationData::get();
    double clock_ratio = vlsi::ClockEstimator(vlsi::Process::um0_18)
                             .dependenceClockRatio(8, 64);
    EXPECT_NEAR(clock_ratio, 1.2526, 0.001);
    ASSERT_EQ(workloads::workloadNames().size(), 7u);
    // Paper: 10-22% speedup per benchmark, 16% average. Our IPC
    // ratios differ; assert every benchmark gains and the mean gain
    // is substantial.
    double sum = 0.0;
    for (const auto &w : workloads::workloadNames()) {
        double speedup =
            d.ipcRatio("2-cluster.fifos.dispatch_steer", w) * clock_ratio;
        EXPECT_GT(speedup, 1.0) << w;
        EXPECT_LT(speedup, 1.3) << w;
        sum += speedup;
    }
    double mean = sum / 7.0;
    EXPECT_GT(mean, 1.08);
    EXPECT_LT(mean, 1.25);
}

TEST(Integration, MispredictionRatesAreSane)
{
    auto &d = IntegrationData::get();
    for (const auto &w : workloads::workloadNames()) {
        const auto &s = d.stats("1-cluster.1window", w);
        EXPECT_GT(s.cond_branches(), 1000u) << w;
        EXPECT_LT(s.mispredictRate(), 0.35) << w;
    }
}

TEST(Integration, CacheBehaviourIsSane)
{
    auto &d = IntegrationData::get();
    for (const auto &w : workloads::workloadNames()) {
        const auto &s = d.stats("1-cluster.1window", w);
        EXPECT_GT(s.dcache_accesses(), 1000u) << w;
        EXPECT_LT(s.dcacheMissRate(), 0.35) << w;
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
