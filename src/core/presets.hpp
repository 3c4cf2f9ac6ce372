/**
 * @file
 * Named machine configurations for every organization evaluated in
 * the paper (Figures 13, 15, 17), all sharing the Table 3 baseline
 * parameters.
 */

#ifndef CESP_CORE_PRESETS_HPP
#define CESP_CORE_PRESETS_HPP

#include <span>
#include <vector>

#include "uarch/config.hpp"

namespace cesp::core {

/**
 * Baseline 8-way superscalar: single cluster, 64-entry flexible
 * window, single-cycle bypass everywhere (Figure 13 baseline; the
 * "ideal" 1-cluster machine of Figure 17).
 */
uarch::SimConfig baseline8Way();

/**
 * Dependence-based 8-way, unclustered: eight 8-entry FIFOs with the
 * Section 5.1 steering heuristic (Figure 13).
 */
uarch::SimConfig dependence8x8();

/**
 * Clustered dependence-based 2x4-way: two clusters of four FIFOs and
 * four FUs each, 1-cycle local / 2-cycle inter-cluster bypass
 * (Figures 14, 15; Figure 17 "2-cluster FIFOs dispatch-steer").
 */
uarch::SimConfig clusteredDependence2x4();

/**
 * Two 32-entry flexible windows with dispatch-driven steering over
 * conceptual FIFOs (8 FIFOs of 4 slots per window; Section 5.6.2).
 */
uarch::SimConfig clusteredWindows2x4();

/**
 * Central 64-entry window with execution-driven steering between two
 * clusters (Section 5.6.1).
 */
uarch::SimConfig clusteredExecDriven2x4();

/**
 * Two 32-entry windows with random steering (Section 5.6.3).
 */
uarch::SimConfig clusteredRandom2x4();

/** The five Figure 17 organizations, in the figure's legend order. */
std::vector<uarch::SimConfig> figure17Configs();

/**
 * Scale a preset to a different total issue width (2/4/8/16) keeping
 * the paper's proportions (window = 8 * width, FIFO count = width).
 * Used by design-space sweeps.
 */
uarch::SimConfig scaledBaseline(int issue_width);
uarch::SimConfig scaledDependence(int issue_width);

/**
 * The paper's future-machine direction (Section 5.4: "the real
 * advantage ... is for building machines with issue widths greater
 * than four"): a 16-wide machine as one 128-entry window versus four
 * 4-way dependence-based clusters.
 */
uarch::SimConfig baseline16Way();
uarch::SimConfig clusteredDependence4x4();

/** A machine the tools name: its preset name, a one-line description
 *  and the function that makes it. */
struct NamedPreset
{
    const char *name;
    const char *description;
    uarch::SimConfig (*make)();
};

/**
 * Every named preset, in `cesp-sim --sweep` order: `cesp-sim --list`,
 * `--preset` and `--sweep` read it, and so does the golden sweep test,
 * whose stored exports are labelled in this order.
 */
std::span<const NamedPreset> sweepPresets();

} // namespace cesp::core

#endif // CESP_CORE_PRESETS_HPP
