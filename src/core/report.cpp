/**
 * @file
 * Implementation of machine pricing (clockConfig, the clock/BIPS
 * gauges), the Section 5.5 speedup study and the run comparison.
 */

#include "core/report.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace cesp::core {

vlsi::ClockConfig
clockConfig(const uarch::SimConfig &cfg)
{
    vlsi::ClockConfig cc;
    cc.org = cfg.style == uarch::IssueBufferStyle::Fifos
        ? vlsi::IssueOrganization::DependenceFifos
        : vlsi::IssueOrganization::CentralWindow;
    cc.issue_width = cfg.issue_width;
    cc.window_size = cfg.window_size;
    cc.num_clusters = cfg.num_clusters;
    cc.fifos_per_cluster = cfg.fifos_per_cluster;
    cc.phys_regs = cfg.phys_int_regs;
    return cc;
}

void
addClockGauges(StatGroup &g, double clock_mhz)
{
    double ipc = g.value("ipc");
    g.addGauge("clock_mhz", "MHz",
               "delay-model clock estimate for this organization",
               clock_mhz);
    g.addGauge("bips", "BIPS",
               "billions of instructions per second: IPC times the "
               "clock estimate",
               ipc * clock_mhz / 1000.0);
}

StatGroup
SpeedupStudy::toGroup() const
{
    StatGroup g("cesp.speedup_study",
                vlsi::technology(tech).name +
                    " dep-based 2x4 vs window 8-way");
    g.addGauge("clock_ratio", "ratio",
               "dependence-based clock over window-based clock",
               clock_ratio);
    g.addGauge("mean_speedup", "ratio",
               "arithmetic mean of per-workload overall speedups",
               mean_speedup);
    g.addGauge("mean_ipc_ratio", "ratio",
               "arithmetic mean of per-workload IPC ratios",
               mean_ipc_ratio);
    for (const SpeedupEntry &e : entries) {
        g.addGauge(e.workload + ".ipc_window", "ipc",
                   "IPC on the 8-way 64-entry window machine",
                   e.ipc_window);
        g.addGauge(e.workload + ".ipc_dep", "ipc",
                   "IPC on the 2x4 clustered dependence machine",
                   e.ipc_dep);
        g.addGauge(e.workload + ".ipc_ratio", "ratio",
                   "dep-based IPC over window-based IPC",
                   e.ipcRatio());
        g.addGauge(e.workload + ".speedup", "ratio",
                   "IPC ratio times clock ratio", e.speedup);
    }
    return g;
}

SpeedupStudy
speedupStudy(vlsi::Process tech, const Grid &grid)
{
    using uarch::IssueBufferStyle;
    if (grid.configs.size() != 2 ||
        grid.configs[0].style != IssueBufferStyle::CentralWindow ||
        grid.configs[1].style != IssueBufferStyle::Fifos)
        panic("speedupStudy: the grid must be {window machine, "
              "dependence-based machine}");
    SpeedupStudy study;
    study.tech = tech;

    vlsi::ClockEstimator clock(tech);
    // Section 5.5: the dep-based machine clocks at least as fast as a
    // machine with half the width and half the window.
    study.clock_ratio = clock.dependenceClockRatio(8, 64);

    double speedup_sum = 0.0;
    double ratio_sum = 0.0;
    for (size_t w = 0; w < grid.workloads.size(); ++w) {
        SpeedupEntry e;
        e.workload = grid.workloads[w];
        e.ipc_window = grid.at(0, w).ipc();
        e.ipc_dep = grid.at(1, w).ipc();
        e.clock_ratio = study.clock_ratio;
        e.speedup = e.ipcRatio() * e.clock_ratio;
        speedup_sum += e.speedup;
        ratio_sum += e.ipcRatio();
        study.entries.push_back(e);
    }
    size_t n = study.entries.size();
    study.mean_speedup = n ? speedup_sum / static_cast<double>(n) : 0.0;
    study.mean_ipc_ratio = n ? ratio_sum / static_cast<double>(n) : 0.0;
    return study;
}

namespace {

/** Count the entries StatGroup::diff flags (one per line). */
size_t
countDiffLines(const std::string &diff)
{
    size_t n = 0;
    for (char c : diff)
        if (c == '\n')
            ++n;
    return n;
}

} // namespace

CompareResult
compareGroups(const std::vector<StatGroup> &before,
              const std::vector<StatGroup> &after,
              const CompareOptions &opt)
{
    CompareResult res;
    if (before.size() != after.size()) {
        res.schema_ok = false;
        res.error = strprintf(
            "run counts differ: %zu vs %zu groups",
            before.size(), after.size());
    }
    size_t n = std::min(before.size(), after.size());
    for (size_t i = 0; i < n; ++i) {
        const StatGroup &a = before[i];
        const StatGroup &b = after[i];
        CompareEntry e;
        e.label = !b.label().empty() ? b.label() : a.label();
        e.schema_note = a.schemaDiff(b);
        if (!e.schema_note.empty()) {
            res.schema_ok = false;
            res.entries.push_back(std::move(e));
            continue;
        }
        e.differing = countDiffLines(a.diff(b));
        const StatEntry *ma = a.find(opt.metric);
        if (!ma || ma->kind == StatKind::Histogram) {
            res.schema_ok = false;
            e.schema_note = strprintf(
                "no scalar metric '%s'", opt.metric.c_str());
            res.entries.push_back(std::move(e));
            continue;
        }
        e.before = a.value(opt.metric);
        e.after = b.value(opt.metric);
        e.delta = e.after - e.before;
        e.rel = e.before != 0.0 ? e.delta / e.before : 0.0;
        e.regressed = opt.lower_is_better
            ? e.after > e.before * (1.0 + opt.threshold)
            : e.after < e.before * (1.0 - opt.threshold);
        res.regressed = res.regressed || e.regressed;
        res.entries.push_back(std::move(e));
    }
    return res;
}

} // namespace cesp::core
