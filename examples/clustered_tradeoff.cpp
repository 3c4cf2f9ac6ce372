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
 *
 *   clustered_tradeoff [--jobs N]
 */

#include <cstdio>
#include <cstring>

#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/presets.hpp"
#include "core/sweep.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;
using namespace cesp::core;

int
main(int argc, char **argv)
{
    RunOptions opt; // jobs 0 = defaultJobs()
    for (int i = 1; i < argc; ++i) {
        auto jobs = std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc
            ? parseInt(argv[++i], 0, 65536)
            : std::nullopt;
        if (!jobs) {
            std::fprintf(stderr,
                         "usage: clustered_tradeoff [--jobs N]\n");
            return 2;
        }
        opt.jobs = static_cast<unsigned>(*jobs);
    }

    // The full machine list: the ideal 1-cluster reference plus every
    // organization at every bypass latency.
    std::vector<uarch::SimConfig> machines = {baseline8Way()};
    for (auto maker : {clusteredDependence2x4, clusteredWindows2x4,
                       clusteredExecDriven2x4, clusteredRandom2x4}) {
        for (int extra : {1, 2, 3, 4}) {
            uarch::SimConfig cfg = maker();
            cfg.inter_cluster_extra = extra;
            machines.push_back(cfg);
        }
    }
    Grid grid = runGrid(machines, workloads::workloadNames(), opt);

    // Instruction-weighted mean IPC of machine m over all workloads.
    auto meanIpc = [&](size_t m) { return grid.merged(m).value("ipc"); };

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
