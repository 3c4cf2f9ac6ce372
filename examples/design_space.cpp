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
#include "vlsi/clock.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;
using namespace cesp::vlsi;

int
main(int argc, char **argv)
{
    unsigned jobs = 0; // 0 = defaultJobs()
    for (int i = 1; i < argc; ++i)
        if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc)
        {
            auto v = cesp::parseInt(argv[++i], 0, 65536);
            if (!v)
                cesp::fatal("invalid value '%s' for --jobs", argv[i]);
            jobs = static_cast<unsigned>(*v);
        }

    ClockEstimator est(Process::um0_18);

    // The sweep engine wants resolved trace views (mmap-backed when
    // the disk cache has a valid v2 file — one page-cache copy per
    // workload).
    std::vector<trace::TraceView> traces;
    for (const auto &w : workloads::allWorkloads())
        traces.push_back(core::cachedWorkloadTraceView(w.name));

    struct Variant
    {
        int iw;
        bool fifo;
        uarch::SimConfig cfg;
    };
    std::vector<Variant> variants;
    for (int iw : {2, 4, 8})
        for (bool fifo : {false, true})
            variants.push_back({iw, fifo,
                                fifo ? core::scaledDependence(iw)
                                     : core::scaledBaseline(iw)});

    // One task per (machine, workload) pair, grouped by machine so
    // results[v * traces.size() + w] is variant v on workload w.
    std::vector<core::SweepTask> tasks;
    for (const Variant &v : variants)
        for (const trace::TraceView &t : traces)
            tasks.push_back({v.cfg, t});
    core::RunOptions opt;
    opt.jobs = jobs;
    std::vector<uarch::SimStats> stats =
        std::move(core::run(tasks, opt).stats);

    Table t("Complexity-effectiveness across issue widths (0.18um)");
    t.header({"machine", "IPC", "clock ps", "clock MHz", "BIPS",
              "critical stage"});

    double best_bips = 0.0;
    std::string best;
    for (size_t v = 0; v < variants.size(); ++v) {
        // Cycles-weighted mean IPC over all workloads.
        uint64_t instrs = 0, cycles = 0;
        for (size_t w = 0; w < traces.size(); ++w) {
            const uarch::SimStats &s = stats[v * traces.size() + w];
            instrs += s.committed();
            cycles += s.cycles();
        }
        double ipc = static_cast<double>(instrs) /
            static_cast<double>(cycles);

        ClockConfig cc;
        cc.org = variants[v].fifo ? IssueOrganization::DependenceFifos
                                  : IssueOrganization::CentralWindow;
        cc.issue_width = variants[v].iw;
        cc.window_size = 8 * variants[v].iw;
        cc.fifos_per_cluster = variants[v].iw;
        StageDelays d = est.delays(cc);

        double bips = ipc * d.clockMhz() / 1000.0;
        if (bips > best_bips) {
            best_bips = bips;
            best = variants[v].cfg.name;
        }
        t.row({variants[v].cfg.name, cell(ipc, 3),
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
