/**
 * @file
 * Combined complexity-effectiveness analysis (paper Section 5.5):
 * join the cycle-level IPC results from the timing simulator with the
 * clock estimate from the VLSI delay models to compute the overall
 * speedup of the clustered dependence-based machine over the
 * window-based machine.
 */

#ifndef CESP_CORE_REPORT_HPP
#define CESP_CORE_REPORT_HPP

#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "uarch/pipeline.hpp"
#include "vlsi/clock.hpp"
#include "vlsi/technology.hpp"

namespace cesp::core {

/**
 * The delay model's view of a simulated machine: its issue-buffer
 * organization (FIFOs, or a window for every other style), widths,
 * cluster count and register count. The one place a SimConfig is
 * priced; the delay model reads window_size only for window machines
 * and fifos_per_cluster only for FIFO machines.
 */
vlsi::ClockConfig clockConfig(const uarch::SimConfig &cfg);

/**
 * Add the complexity-effectiveness bottom line to a run's group: the
 * `clock_mhz` gauge (@p clock_mhz, a delay-model clock estimate) and
 * `bips`, the group's IPC times that clock.
 */
void addClockGauges(StatGroup &g, double clock_mhz);

/** Per-workload entry of the Section 5.5 study. */
struct SpeedupEntry
{
    std::string workload;
    double ipc_window;  //!< 8-way, 64-entry window machine
    double ipc_dep;     //!< 2x4-way clustered dependence-based
    double clock_ratio; //!< dep-based clock / window clock (>1)
    double speedup;     //!< (ipc_dep/ipc_window) * clock_ratio

    double
    ipcRatio() const
    {
        return ipc_window > 0.0 ? ipc_dep / ipc_window : 0.0;
    }
};

/** Full study result. */
struct SpeedupStudy
{
    vlsi::Process tech;
    double clock_ratio;
    std::vector<SpeedupEntry> entries;
    double mean_speedup;     //!< arithmetic mean over workloads
    double mean_ipc_ratio;

    /**
     * Export the study as a metrics group: the clock ratio and means
     * as gauges, then per-workload speedup/IPC-ratio gauges named
     * `<workload>.speedup` etc. Renders through statTable and
     * exports through StatGroup::toJson like any simulator group.
     */
    StatGroup toGroup() const;
};

/**
 * Combine the Section 5.5 study from @p grid, whose configuration 0
 * is the window-based machine and configuration 1 the clustered
 * dependence-based one (panics on any other grid shape), with the
 * clock ratio for @p tech from the delay models: one entry per
 * workload of the grid.
 */
SpeedupStudy speedupStudy(vlsi::Process tech, const Grid &grid);

// ---------------------------------------------------------------------
// Cross-run comparison (the cesp-sim --compare CI perf gate)

/** How compareGroups judges a regression. */
struct CompareOptions
{
    /** Scalar metric gating the comparison (counter, gauge, or
     *  derived name). */
    std::string metric = "ipc";
    /** Relative tolerance as a fraction (0.02 = 2%): |after| may
     *  fall below before * (1 - threshold) without flagging. */
    double threshold = 0.0;
    /** Direction of improvement for the metric (false: higher is
     *  better, the IPC default). */
    bool lower_is_better = false;
};

/** One before/after pair of the comparison. */
struct CompareEntry
{
    std::string label;     //!< after-group label (or before's)
    double before = 0.0;   //!< gating metric in the "a" group
    double after = 0.0;    //!< gating metric in the "b" group
    double delta = 0.0;    //!< after - before
    double rel = 0.0;      //!< delta / before (0 when before == 0)
    bool regressed = false;
    size_t differing = 0;  //!< entries flagged by StatGroup::diff
    std::string schema_note; //!< schemaDiff text; empty when schemas match
};

/** Verdict of compareGroups. */
struct CompareResult
{
    std::vector<CompareEntry> entries; //!< positional pairs
    bool regressed = false; //!< any entry regressed
    bool schema_ok = true;  //!< all pairs share a schema + metric
    std::string error;      //!< set when the inputs cannot be paired
};

/**
 * Compare two exported result sets pairwise by position (run i of
 * sweep A against run i of sweep B). Schemas are checked via
 * StatGroup::schemaDiff and value differences counted via diff();
 * the gating metric regresses when it worsens by more than the
 * threshold in the configured direction. A missing metric or schema
 * mismatch clears schema_ok but still reports the remaining pairs.
 */
CompareResult compareGroups(const std::vector<StatGroup> &before,
                            const std::vector<StatGroup> &after,
                            const CompareOptions &options = {});

} // namespace cesp::core

#endif // CESP_CORE_REPORT_HPP
