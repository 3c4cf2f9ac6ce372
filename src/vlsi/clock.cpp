/**
 * @file
 * Implementation of the clock estimator.
 */

#include "vlsi/clock.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace cesp::vlsi {

double
StageDelays::criticalPs() const
{
    return std::max({rename, window(), bypass});
}

std::string
StageDelays::criticalStage() const
{
    double c = criticalPs();
    if (c == window())
        return "window";
    if (c == rename)
        return "rename";
    return "bypass";
}

ClockEstimator::ClockEstimator(Process p)
    : rename_(p), wakeup_(p), select_(p), bypass_(p), resv_(p),
      regfile_(p), dcache_(p)
{
}

StageDelays
ClockEstimator::delays(const ClockConfig &cfg) const
{
    if (cfg.num_clusters < 1)
        fatal("clock estimator: %d clusters", cfg.num_clusters);

    StageDelays d{};
    // Rename (with steering hidden behind the map-table access, per
    // Section 5.3) is machine-wide regardless of clustering.
    d.rename = rename_.totalPs(cfg.issue_width);

    int cluster_width = cfg.issue_width / cfg.num_clusters;
    cluster_width = std::max(cluster_width, 1);

    switch (cfg.org) {
      case IssueOrganization::CentralWindow:
        // Tags from all result buses are broadcast over the window.
        d.window_wakeup =
            wakeup_.totalPs(cfg.issue_width, cfg.window_size);
        d.window_select = select_.totalPs(cfg.window_size);
        break;
      case IssueOrganization::DependenceFifos:
        // Only the FIFO heads interrogate the reservation table; the
        // selection tree spans the heads of one cluster's FIFOs.
        d.window_wakeup =
            resv_.totalPs(cluster_width, cfg.phys_regs);
        d.window_select =
            select_.totalPs(std::max(cfg.fifos_per_cluster, 2));
        break;
    }

    // Bypass wires span one cluster's functional units.
    d.bypass = bypass_.totalPs(cluster_width);
    return d;
}

std::vector<ClockEstimator::StructureDelay>
ClockEstimator::fullReport(const ClockConfig &cfg,
                           uint32_t dcache_bytes, int dcache_assoc,
                           uint32_t dcache_line) const
{
    StageDelays d = delays(cfg);
    int cluster_width =
        std::max(cfg.issue_width / cfg.num_clusters, 1);
    std::vector<StructureDelay> out;
    out.push_back({"rename", d.rename, true});
    out.push_back({cfg.org == IssueOrganization::DependenceFifos
                       ? "reservation table" : "window wakeup",
                   d.window_wakeup, false});
    out.push_back({"selection", d.window_select, false});
    out.push_back({"bypass (local)", d.bypass, false});
    out.push_back({"register file read",
                   regfile_.machinePs(cluster_width, cfg.phys_regs),
                   true});
    out.push_back({"dcache access",
                   dcache_.totalPs(dcache_bytes, dcache_assoc,
                                   dcache_line),
                   true});
    return out;
}

double
ClockEstimator::dependenceClockRatio(int issue_width,
                                     int window_size) const
{
    // Section 5.5: clk_dep / clk_win >=
    //   (Twakeup + Tselect)(IW, WS) / (Twakeup + Tselect)(IW/2, WS/2).
    double win = wakeup_.totalPs(issue_width, window_size) +
        select_.totalPs(window_size);
    double dep = wakeup_.totalPs(issue_width / 2, window_size / 2) +
        select_.totalPs(window_size / 2);
    return win / dep;
}

} // namespace cesp::vlsi
