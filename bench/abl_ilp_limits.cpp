/**
 * @file
 * Ablation: ILP limit study. Places the simulated machines against
 * the idealized dataflow schedule of each workload (unit latency,
 * perfect prediction and caches): how much of the achievable
 * parallelism does each organization capture, and how does the
 * window size gate it (Section 4.2.2's "a larger window is required
 * for finding more independent instructions")?
 *
 *   abl_ilp_limits [--json FILE]
 *
 * Every printed quantity lives in a per-workload StatGroup of
 * gauges, so --json exports the same numbers the tables print, in
 * the standard schema-versioned document.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/table.hpp"
#include "core/machine.hpp"
#include "core/presets.hpp"
#include "trace/analysis.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;
using namespace cesp::core;

namespace {

constexpr int kWindowSweep[] = {8, 16, 32, 64, 128, 256};

/** All the limit-study quantities of one workload. */
StatGroup
limitsGroup(const std::string &workload)
{
    trace::TraceView view = cachedWorkloadTraceView(workload);
    auto unlimited = trace::dataflowSchedule(view);
    trace::ScheduleLimits lim;
    lim.window = 64;
    lim.issue_width = 8;
    auto limited = trace::dataflowSchedule(view, lim);
    double machine = Machine(baseline8Way()).runWorkload(workload).ipc();
    double dep = Machine(dependence8x8()).runWorkload(workload).ipc();
    auto deps = trace::analyzeDependences(view);

    StatGroup g("ilp_limits", workload);
    g.addGauge("dataflow_ipc", "inst/cycle",
               "Unlimited dataflow-schedule IPC (unit latency, "
               "perfect prediction and caches)", unlimited.ipc);
    g.addGauge("ideal_w64_ipc", "inst/cycle",
               "Dataflow IPC limited to a 64-entry window, 8-wide",
               limited.ipc);
    g.addGauge("machine_ipc", "inst/cycle",
               "Realized IPC of the baseline window machine", machine);
    g.addGauge("dep_ipc", "inst/cycle",
               "Realized IPC of the dependence-based machine", dep);
    g.addGauge("captured_pct", "%",
               "Baseline IPC as a share of the finite-window ideal",
               100.0 * machine / limited.ipc);
    for (int ws : kWindowSweep) {
        trace::ScheduleLimits l;
        l.window = ws;
        l.issue_width = 8;
        g.addGauge("ideal_ipc_w" + std::to_string(ws), "inst/cycle",
                   "Idealized IPC with a " + std::to_string(ws) +
                       "-entry window, 8-wide",
                   trace::dataflowSchedule(view, l).ipc);
    }
    g.addGauge("dep_distance_mean", "instructions",
               "Mean producer-consumer distance",
               deps.distance.mean());
    g.addGauge("adjacent_pct", "%",
               "Instructions whose producer is the previous "
               "instruction", 100.0 * deps.adjacent_frac);
    g.addGauge("independent_pct", "%",
               "Instructions with no in-window producer",
               100.0 * deps.independent_frac);
    g.addGauge("critical_path", "instructions",
               "Dataflow critical path length",
               static_cast<double>(deps.critical_path));
    return g;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string json_path;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: abl_ilp_limits [--json FILE]\n");
            return 2;
        }
    }
    const bool quiet = json_path == "-";

    std::vector<StatGroup> groups;
    for (const auto &w : workloads::workloadNames())
        groups.push_back(limitsGroup(w));

    Table t("Dataflow ILP limits vs realized IPC");
    t.header({"benchmark", "dataflow", "win=64 iw=8", "machine IPC",
              "dep-based IPC", "captured %"});
    for (const StatGroup &g : groups)
        t.row({g.label(), cell(g.value("dataflow_ipc"), 2),
               cell(g.value("ideal_w64_ipc"), 2),
               cell(g.value("machine_ipc"), 2),
               cell(g.value("dep_ipc"), 2),
               cell(g.value("captured_pct"))});

    Table win("Idealized IPC vs window size (issue width 8)");
    std::vector<std::string> hdr = {"benchmark"};
    for (int ws : kWindowSweep)
        hdr.push_back("w" + std::to_string(ws));
    win.header(hdr);
    for (const StatGroup &g : groups) {
        std::vector<std::string> row = {g.label()};
        for (int ws : kWindowSweep)
            row.push_back(
                cell(g.value("ideal_ipc_w" + std::to_string(ws)), 2));
        win.row(row);
    }

    Table d("Dependence character (what the steering heuristic "
            "exploits)");
    d.header({"benchmark", "mean dep distance", "adjacent %",
              "independent %", "critical path"});
    for (const StatGroup &g : groups)
        d.row({g.label(), cell(g.value("dep_distance_mean"), 1),
               cell(g.value("adjacent_pct")),
               cell(g.value("independent_pct")),
               cell(g.value("critical_path"), 0)});

    if (!quiet) {
        t.print();
        win.print();
        d.print();
        std::puts("The realized IPC tracks the finite-window ideal; "
                  "the residual gap is branch recovery and cache "
                  "misses. High adjacent-producer fractions are what "
                  "let the FIFO steering work.");
    }
    if (!json_path.empty()) {
        std::string err;
        if (!writeTextOutput(json_path, statGroupListJson(groups, {}),
                             &err))
            fatal("%s", err.c_str());
    }
    return 0;
}
