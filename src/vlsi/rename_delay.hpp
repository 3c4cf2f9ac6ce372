/**
 * @file
 * Register rename delay model (paper Section 4.1, Figure 3, Table 2).
 *
 * The rename logic is a multi-ported RAM map table (the RAM scheme of
 * the MIPS R10000) plus dependence-check logic that is hidden behind
 * the map-table access for issue widths up to 8. Its delay decomposes
 * into decoder, wordline, bitline, and sense-amplifier components
 * (Trename = Tdecode + Twordline + Tbitline + Tsenseamp); window size
 * does not enter, and issue width enters through wire lengths, making
 * each component effectively linear in issue width with a small
 * quadratic term (Section 4.1.2).
 *
 * Each component is the quadratic through calibrated anchors at issue
 * widths 2/4/8 per technology; the anchors reproduce Table 2's totals
 * (1577.9/1710.5, 627.2/726.6, 351.0/427.9 ps) and Figure 3's trends
 * (bitline grows faster than wordline; the 2-to-8-way bitline delay
 * increase worsens from 37% at 0.8 um to 53% at 0.18 um).
 */

#ifndef CESP_VLSI_RENAME_DELAY_HPP
#define CESP_VLSI_RENAME_DELAY_HPP

#include "vlsi/interpolate.hpp"
#include "vlsi/technology.hpp"

namespace cesp::vlsi {

/** Component breakdown of the rename-logic critical path, in ps. */
struct RenameDelay
{
    double decode;
    double wordline;
    double bitline;
    double senseamp;

    double
    total() const
    {
        return decode + wordline + bitline + senseamp;
    }
};

/** Calibrated rename delay model for one technology. */
class RenameDelayModel
{
  public:
    explicit RenameDelayModel(Process p);

    /**
     * Delay breakdown for the given issue width (number of
     * instructions renamed per cycle). Valid for issue widths in
     * [1, 16]; anchored at 2, 4, and 8.
     */
    RenameDelay delay(int issue_width) const;

    /** Total rename delay in ps. */
    double
    totalPs(int issue_width) const
    {
        return delay(issue_width).total();
    }

    /**
     * Delay of the dependence-check logic that runs in parallel with
     * the map-table access (Section 4.1): every logical source is
     * compared against the logical destinations of all earlier
     * instructions in the rename group (IW*(IW-1)/2 comparator
     * columns feeding a priority mux of depth ~IW). The paper found
     * it hidden behind the map table for issue widths of 2, 4, and 8;
     * this model reproduces that and shows it emerging from hiding as
     * the group grows (dependenceCheckHidden(16) is false at
     * 0.18 um).
     */
    double dependenceCheckPs(int issue_width) const;

    /**
     * Technology scaling of a small multi-ported RAM (the map table,
     * the rename CAM, the reservation table) relative to 0.18 um: the
     * 4-wide total at @p p over the one at 0.18 um.
     */
    static double ramScale(Process p);

    /** True if the check fits under the map-table access. */
    bool
    dependenceCheckHidden(int issue_width) const
    {
        return dependenceCheckPs(issue_width) <= totalPs(issue_width);
    }

  private:
    Process process_;
    Quad1D decode_, wordline_, bitline_, senseamp_;
};

} // namespace cesp::vlsi

#endif // CESP_VLSI_RENAME_DELAY_HPP
