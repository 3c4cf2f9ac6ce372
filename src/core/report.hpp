/**
 * @file
 * Joins the timing simulator to the VLSI delay models and runs to
 * each other: machine pricing (the SimConfig -> ClockConfig map and
 * the clock/BIPS gauges) and the cross-run comparison behind
 * `cesp-sim --compare`.
 */

#ifndef CESP_CORE_REPORT_HPP
#define CESP_CORE_REPORT_HPP

#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "uarch/config.hpp"
#include "vlsi/clock.hpp"

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
