/**
 * @file
 * Implementation of machine pricing (clockConfig, the clock/BIPS
 * gauges) and the run comparison.
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
