/**
 * @file
 * Design-space exploration: combine the delay models (clock) with the
 * timing simulator (IPC) across issue widths and window organizations
 * to find the complexity-effective design points — the paper's core
 * methodology applied as a tool. Also extrapolates the technology
 * scaling below 0.18 um with the generic scaled-technology model.
 *
 * The (machine x workload) simulation matrix runs on the parallel
 * sweep engine; pass --jobs N to set the worker count (default: all
 * hardware threads). Results are identical for any thread count.
 *
 *   design_space [--jobs N]
 */

#include <cstdio>
#include <cstring>

#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/presets.hpp"
#include "core/sweep.hpp"
#include "vlsi/clock.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;
using namespace cesp::vlsi;

int
main(int argc, char **argv)
{
    core::RunOptions opt; // jobs 0 = defaultJobs()
    for (int i = 1; i < argc; ++i) {
        auto jobs = std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc
            ? parseInt(argv[++i], 0, 65536)
            : std::nullopt;
        if (!jobs) {
            std::fprintf(stderr, "usage: design_space [--jobs N]\n");
            return 2;
        }
        opt.jobs = static_cast<unsigned>(*jobs);
    }

    ClockEstimator est(Process::um0_18);

    std::vector<uarch::SimConfig> configs;
    for (int iw : {2, 4, 8}) {
        configs.push_back(core::scaledBaseline(iw));
        configs.push_back(core::scaledDependence(iw));
    }
    core::Grid grid =
        core::runGrid(configs, workloads::workloadNames(), opt);

    Table t("Complexity-effectiveness across issue widths (0.18um)");
    t.header({"machine", "IPC", "clock ps", "clock MHz", "BIPS",
              "critical stage"});

    double best_bips = 0.0;
    std::string best;
    for (size_t v = 0; v < configs.size(); ++v) {
        // Cycles-weighted mean IPC over all workloads.
        double ipc = grid.merged(v).value("ipc");

        int iw = configs[v].issue_width;
        ClockConfig cc;
        cc.org = configs[v].style == uarch::IssueBufferStyle::Fifos
            ? IssueOrganization::DependenceFifos
            : IssueOrganization::CentralWindow;
        cc.issue_width = iw;
        cc.window_size = 8 * iw;
        cc.fifos_per_cluster = iw;
        StageDelays d = est.delays(cc);

        double bips = ipc * d.clockMhz() / 1000.0;
        if (bips > best_bips) {
            best_bips = bips;
            best = configs[v].name;
        }
        t.row({configs[v].name, cell(ipc, 3),
               cell(d.criticalPs()), cell(d.clockMhz(), 0),
               cell(bips, 2), d.criticalStage()});
    }
    t.print();
    std::printf("Most complexity-effective design point: %s "
                "(%.2f BIPS)\n\n", best.c_str(), best_bips);

    // Technology extrapolation: the window machine's clock stops
    // improving as wire-dominated stages take over.
    Table s("Clock scaling of an 8-way/64 window machine vs a 2x4 "
            "dependence-based machine");
    s.header({"feature (um)", "window clock MHz", "dep clock MHz",
              "ratio"});
    for (double f : {0.8, 0.35, 0.25, 0.18}) {
        Process p = f == 0.8 ? Process::um0_8
            : f == 0.35      ? Process::um0_35
            : f == 0.18      ? Process::um0_18
                             : Process::um0_18;
        // For non-calibrated nodes interpolate via the scaled model
        // of the nearest calibrated process (documented limitation).
        ClockEstimator e(p);
        ClockConfig win;
        win.issue_width = 8;
        win.window_size = 64;
        StageDelays dw = e.delays(win);

        ClockConfig dep;
        dep.org = IssueOrganization::DependenceFifos;
        dep.issue_width = 8;
        dep.num_clusters = 2;
        dep.fifos_per_cluster = 4;
        StageDelays dd = e.delays(dep);

        s.row({cell(f, 2), cell(dw.clockMhz(), 0),
               cell(dd.clockMhz(), 0),
               cell(dw.criticalPs() / dd.criticalPs(), 2)});
    }
    s.print();
    return 0;
}
