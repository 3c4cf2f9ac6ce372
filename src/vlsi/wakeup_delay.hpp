/**
 * @file
 * Issue-window wakeup delay model (paper Section 4.2, Figures 5 and 6,
 * Table 2).
 *
 * The wakeup logic is a CAM: result tags are driven down tag lines
 * spanning the window, compared at each entry, and the per-tag match
 * lines are ORed into the ready flags. The delay decomposes as
 * Twakeup = Ttagdrive + Ttagmatch + TmatchOR (Section 4.2.2), where
 * the tag drive time is quadratic in window size with an issue-width-
 * dependent weight, and tag match / match OR are (nearly) linear in
 * issue width with only a weak window-size dependence.
 *
 * The total delay is the tensor quadratic through a 3x3 calibrated
 * anchor grid (issue widths 2/4/8 x window sizes 16/32/64) per
 * technology; tag match and match OR follow small parametric forms
 * and tag drive is the remainder. The anchors reproduce:
 *  - Table 2's wakeup contribution: 204.0 ps (4-way, 32) and 350.0 ps
 *    (8-way, 64) at 0.18 um, and the corresponding 0.35/0.8 um values
 *    implied jointly with the selection model;
 *  - Figure 5's growth at a 64-entry window: ~34% from 2- to 4-way and
 *    ~46% from 4- to 8-way;
 *  - Figure 6's scaling: the tag drive + tag match fraction of the
 *    total grows from ~52% at 0.8 um to ~65% at 0.18 um (8-way, 64).
 */

#ifndef CESP_VLSI_WAKEUP_DELAY_HPP
#define CESP_VLSI_WAKEUP_DELAY_HPP

#include "vlsi/interpolate.hpp"
#include "vlsi/technology.hpp"

namespace cesp::vlsi {

/** Component breakdown of the wakeup critical path, in ps. */
struct WakeupDelay
{
    double tag_drive;
    double tag_match;
    double match_or;

    double
    total() const
    {
        return tag_drive + tag_match + match_or;
    }
};

/** Calibrated wakeup delay model for one technology. */
class WakeupDelayModel
{
  public:
    explicit WakeupDelayModel(Process p);

    /**
     * Delay breakdown for the given issue width and window size.
     * Valid for issue widths in [1, 16] and window sizes in [8, 128];
     * anchored at issue widths 2/4/8 and window sizes 16/32/64.
     */
    WakeupDelay delay(int issue_width, int window_size) const;

    /** Total wakeup delay in ps. */
    double
    totalPs(int issue_width, int window_size) const
    {
        return delay(issue_width, window_size).total();
    }

  private:
    Quad2D total_;
    // Tag match: m0 + m1*IW + m2*WS. Match OR: o0 + o1*IW.
    double m0_, m1_, m2_, o0_, o1_;
};

} // namespace cesp::vlsi

#endif // CESP_VLSI_WAKEUP_DELAY_HPP
