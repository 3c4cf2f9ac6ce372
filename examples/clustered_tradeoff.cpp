/**
 * @file
 * Clustered-machine tradeoff study: sweep the inter-cluster bypass
 * latency and compare the steering policies' tolerance — extending
 * the paper's Section 5.6 comparison to slower interconnects (the
 * paper's "two or more cycles in future technologies").
 *
 * The 17-machine x 7-workload matrix runs on the parallel sweep
 * engine; pass --jobs N to set the worker count (default: all
 * hardware threads). Results are identical for any thread count.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/machine.hpp"
#include "core/presets.hpp"
#include "core/sweep.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;
using namespace cesp::core;

int
main(int argc, char **argv)
{
    unsigned jobs = 0; // 0 = defaultJobs()
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc)
        {
            auto v = parseInt(argv[++i], 0, 65536);
            if (!v)
                fatal("invalid value '%s' for --jobs", argv[i]);
            jobs = static_cast<unsigned>(*v);
        }

    // Resolve the workload traces, then build the full machine list:
    // the ideal 1-cluster reference plus every organization at every
    // bypass latency.
    std::vector<trace::TraceView> traces;
    for (const auto &w : workloads::allWorkloads())
        traces.push_back(cachedWorkloadTraceView(w.name));

    std::vector<uarch::SimConfig> machines = {baseline8Way()};
    for (auto maker : {clusteredDependence2x4, clusteredWindows2x4,
                       clusteredExecDriven2x4, clusteredRandom2x4}) {
        for (int extra : {1, 2, 3, 4}) {
            uarch::SimConfig cfg = maker();
            cfg.inter_cluster_extra = extra;
            machines.push_back(cfg);
        }
    }

    std::vector<SweepTask> tasks;
    for (const uarch::SimConfig &cfg : machines)
        for (const trace::TraceView &t : traces)
            tasks.push_back({cfg, t});
    RunOptions opt;
    opt.jobs = jobs;
    std::vector<uarch::SimStats> stats =
        std::move(run(tasks, opt).stats);

    // Instruction-weighted mean IPC of machine m over all workloads:
    // merge the per-run registries and read the recomputed derived
    // metric (total committed over total cycles).
    auto meanIpc = [&](size_t m) {
        auto first = stats.begin() +
            static_cast<ptrdiff_t>(m * traces.size());
        std::vector<uarch::SimStats> runs(
            first, first + static_cast<ptrdiff_t>(traces.size()));
        return mergedStats(runs).value("ipc");
    };

    std::printf("ideal 1-cluster 8-way IPC: %.3f\n\n", meanIpc(0));

    Table t("IPC vs inter-cluster bypass latency (extra cycles)");
    t.header({"organization", "+1 (paper)", "+2", "+3", "+4"});
    size_t m = 1;
    for (int org = 0; org < 4; ++org) {
        std::vector<std::string> row = {machines[m].name};
        for (int extra = 0; extra < 4; ++extra)
            row.push_back(cell(meanIpc(m++), 3));
        t.row(row);
    }
    t.print();
    std::puts("Dependence-aware steering (FIFO or window) degrades "
              "gracefully as the interconnect slows; random steering "
              "collapses — the paper's motivation for grouping "
              "dependent instructions.");
    return 0;
}
