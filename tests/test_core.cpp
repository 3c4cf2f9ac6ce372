/**
 * @file
 * Tests for the core API layer: presets, simulating a program or a
 * trace on a preset, the trace cache, and the configurations x
 * workloads grid.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <utility>

#include "core/machine.hpp"
#include "core/presets.hpp"
#include "core/sweep.hpp"
#include "func/emulator.hpp"
#include "trace/synthetic.hpp"
#include "vlsi/clock.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;
using namespace cesp::core;

TEST(Presets, AllValidate)
{
    baseline8Way().validate();
    dependence8x8().validate();
    clusteredDependence2x4().validate();
    clusteredWindows2x4().validate();
    clusteredExecDriven2x4().validate();
    clusteredRandom2x4().validate();
    baseline16Way().validate();
    clusteredDependence4x4().validate();
    for (int iw : {2, 4, 8, 16}) {
        scaledBaseline(iw).validate();
        scaledDependence(iw).validate();
    }
}

TEST(PresetsDeath, EmptyFifosAreAConfigError)
{
    uarch::SimConfig c = dependence8x8();
    c.fifo_depth = 0;
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "FIFO shape 8x0 invalid");
}

TEST(Presets, Figure17OrderAndUniqueness)
{
    auto configs = figure17Configs();
    ASSERT_EQ(configs.size(), 5u);
    EXPECT_EQ(configs[0].name, "1-cluster.1window");
    EXPECT_EQ(configs[1].name, "2-cluster.fifos.dispatch_steer");
    EXPECT_EQ(configs[2].name, "2-cluster.windows.dispatch_steer");
    EXPECT_EQ(configs[3].name, "2-cluster.1window.exec_steer");
    EXPECT_EQ(configs[4].name, "2-cluster.windows.random_steer");
    std::set<std::string> names;
    for (const auto &c : configs)
        names.insert(c.name);
    EXPECT_EQ(names.size(), 5u);
}

TEST(Presets, Table3ParametersInBaseline)
{
    uarch::SimConfig c = baseline8Way();
    EXPECT_EQ(c.fetch_width, 8);
    EXPECT_EQ(c.issue_width, 8);
    EXPECT_EQ(c.retire_width, 16);
    EXPECT_EQ(c.window_size, 64);
    EXPECT_EQ(c.max_inflight, 128);
    EXPECT_EQ(c.fus_per_cluster, 8);
    EXPECT_EQ(c.ls_ports, 4);
    EXPECT_EQ(c.fu_latency, 1);
    EXPECT_EQ(c.phys_int_regs, 120);
    EXPECT_EQ(c.phys_fp_regs, 120);
    EXPECT_EQ(c.dcache.size_bytes, 32u * 1024u);
    EXPECT_EQ(c.dcache.associativity, 2);
    EXPECT_EQ(c.dcache.line_bytes, 32u);
    EXPECT_EQ(c.dcache.miss_latency, 6);
    EXPECT_EQ(c.bpred.table_entries, 4096);
    EXPECT_EQ(c.bpred.history_bits, 12);
}

TEST(Presets, PaperFifoShape)
{
    uarch::SimConfig d = dependence8x8();
    EXPECT_EQ(d.fifos_per_cluster, 8);
    EXPECT_EQ(d.fifo_depth, 8);
    EXPECT_EQ(d.fifos_per_cluster * d.fifo_depth * d.num_clusters,
              64); // same capacity as window

    uarch::SimConfig c = clusteredDependence2x4();
    EXPECT_EQ(c.num_clusters, 2);
    EXPECT_EQ(c.fifos_per_cluster, 4);
    EXPECT_EQ(c.fus_per_cluster, 4);
    EXPECT_EQ(c.inter_cluster_extra, 1); // 2-cycle total
}

TEST(Presets, ScaledKeepsProportions)
{
    uarch::SimConfig c = scaledBaseline(4);
    EXPECT_EQ(c.issue_width, 4);
    EXPECT_EQ(c.window_size, 32);
    EXPECT_EQ(c.fus_per_cluster, 4);
    uarch::SimConfig d = scaledDependence(2);
    EXPECT_EQ(d.fifos_per_cluster, 2);
    EXPECT_EQ(d.style, uarch::IssueBufferStyle::Fifos);
}

namespace {

/** Assemble and functionally run @p source, then simulate the trace
 *  on @p cfg. */
uarch::SimStats
simulateProgram(const uarch::SimConfig &cfg, const std::string &source)
{
    trace::TraceBuffer buf;
    func::runProgram(source, 10000000, &buf);
    return uarch::simulate(cfg, buf);
}

} // namespace

TEST(Machine, RunProgramProducesStats)
{
    auto s = simulateProgram(baseline8Way(),
                             "main: li t0, 1\n li t1, 2\n halt\n");
    EXPECT_EQ(s.committed(), 3u);
    EXPECT_GT(s.cycles(), 0u);
}

TEST(Machine, RunTraceUsesConfigName)
{
    trace::TraceBuffer buf;
    trace::TraceOp t;
    t.op = isa::Opcode::ADD;
    t.cls = isa::OpClass::IntAlu;
    t.dst = 1;
    buf.append(t);
    auto s = uarch::simulate(dependence8x8(), buf);
    EXPECT_EQ(s.config_name(), "1-cluster.fifos.dispatch_steer");
}

TEST(Machine, TraceCacheReturnsSameBuffer)
{
    trace::TraceView a = cachedWorkloadTraceView("go");
    trace::TraceView b = cachedWorkloadTraceView("go");
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.count, b.count);
    EXPECT_GT(a.count, 0u);
    clearTraceCache();
    trace::TraceView c = cachedWorkloadTraceView("go");
    EXPECT_EQ(c.count, a.count);
}

TEST(Machine, ReusableAcrossRuns)
{
    // A simulation is a pure function of (config, trace): two runs of
    // one config agree on every registered metric.
    const char *loop = "main: li t0, 0\n li t1, 100\n"
                       "loop: addi t0, t0, 1\n blt t0, t1, loop\n"
                       " halt\n";
    auto s1 = simulateProgram(baseline8Way(), loop);
    auto s2 = simulateProgram(baseline8Way(), loop);
    EXPECT_GT(s1.committed(), 200u);
    EXPECT_TRUE(s1.group().sameValues(s2.group()));
}

TEST(Report, ClockRatioVariesByTechnology)
{
    // Section 5.5: the clustered dependence-based 8-way machine clocks
    // faster than the window-based one in the oldest and newest process.
    EXPECT_GT(vlsi::ClockEstimator(vlsi::Process::um0_8)
                  .dependenceClockRatio(8, 64),
              1.0);
    EXPECT_GT(vlsi::ClockEstimator(vlsi::Process::um0_18)
                  .dependenceClockRatio(8, 64),
              1.0);
}

namespace {

std::atomic<size_t> g_simulations{0};

void
countSimulation(size_t)
{
    ++g_simulations;
}

/** Grid of @p configs on compress, and how many simulations it ran. */
std::pair<Grid, size_t>
countedGrid(std::vector<uarch::SimConfig> configs)
{
    g_simulations = 0;
    detail::sweep_task_hook = countSimulation;
    Grid g = runGrid(std::move(configs), {"compress"});
    detail::sweep_task_hook = nullptr;
    return {std::move(g), g_simulations.load()};
}

} // namespace

TEST(RunGrid, MachinesEqualButForNameSimulateOnce)
{
    uarch::SimConfig renamed = baseline8Way();
    renamed.name = "renamed";
    uarch::SimConfig slower = baseline8Way();
    slower.dcache.miss_latency = 12;
    auto [g, simulations] =
        countedGrid({baseline8Way(), renamed, slower});
    EXPECT_EQ(simulations, 2u);
    ASSERT_EQ(g.stats.size(), 3u);
    EXPECT_EQ(g.at(0, 0).config_name(), baseline8Way().name);
    EXPECT_EQ(g.at(1, 0).config_name(), "renamed");
    EXPECT_EQ(g.at(2, 0).config_name(), baseline8Way().name);
    EXPECT_TRUE(g.at(1, 0).group().sameValues(g.at(0, 0).group()));
    EXPECT_FALSE(g.at(2, 0).group().sameValues(g.at(0, 0).group()));
}

TEST(RunGrid, MachinesDifferingInOneFieldNeverMerge)
{
    std::vector<uarch::SimConfig> configs(6, baseline8Way());
    configs[1].dcache.size_bytes *= 2;
    configs[2].l2.enabled = true;
    configs[3].bpred.history_bits = 8;
    configs[4].fu_mix = {4, 2, 2};
    configs[5].random_seed += 1;
    auto [g, simulations] = countedGrid(configs);
    EXPECT_EQ(simulations, configs.size());
    EXPECT_EQ(g.stats.size(), configs.size());
}

TEST(RunGrid, MergedAggregatesOneConfigurationsBlock)
{
    // Two machines on two traces, config-major: merged(1) is the
    // mergedStats of the second machine's two runs.
    Grid g{{baseline8Way(), dependence8x8()}, {"a", "b"}, {}};
    for (const uarch::SimConfig &cfg : g.configs)
        for (uint64_t seed : {1, 2}) {
            trace::SyntheticParams sp;
            sp.seed = seed;
            g.stats.push_back(
                uarch::simulate(cfg, trace::generateSynthetic(sp, 2000)));
        }
    EXPECT_TRUE(g.merged(1).sameValues(mergedStats({g.at(1, 0), g.at(1, 1)})));
    EXPECT_FALSE(g.merged(1).sameValues(g.merged(0)));
}

TEST(Presets, IpcMonotoneInScaledWidth)
{
    // On parallel code, wider scaled machines never lose IPC.
    trace::SyntheticParams sp;
    sp.mean_dep_distance = 10.0;
    trace::TraceBuffer buf = trace::generateSynthetic(sp, 20000);
    double prev = 0.0;
    for (int iw : {2, 4, 8}) {
        uarch::SimConfig cfg = scaledBaseline(iw);
        cfg.bpred.perfect = true;
        double ipc = uarch::simulate(cfg, buf).ipc();
        EXPECT_GE(ipc, prev - 1e-9) << iw;
        prev = ipc;
    }
}

TEST(Presets, ScaledDependenceTracksScaledBaseline)
{
    trace::SyntheticParams sp;
    trace::TraceBuffer buf = trace::generateSynthetic(sp, 20000);
    for (int iw : {2, 4, 8}) {
        double base =
            uarch::simulate(scaledBaseline(iw), buf).ipc();
        double dep =
            uarch::simulate(scaledDependence(iw), buf).ipc();
        EXPECT_GT(dep, 0.7 * base) << iw;
        EXPECT_LE(dep, base + 1e-9) << iw;
    }
}
