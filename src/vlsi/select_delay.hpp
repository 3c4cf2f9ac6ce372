/**
 * @file
 * Selection logic delay model (paper Section 4.3, Figure 8).
 *
 * Selection is a tree of 4-input arbiter cells (the optimal fan-in the
 * paper found, matching the MIPS R10000): request signals propagate to
 * the root, the root grants, and the grant propagates back down. The
 * delay is therefore
 *
 *   Tselect = (L - 1) * Treq + Troot + (L - 1) * Tgrant,
 *   L = ceil(log4(window size)),
 *
 * (Section 4.3.2: c0 + c1*log4(WS)). All components are logic delays
 * and scale with feature size. The plateau of ceil(log4) makes the
 * 32- and 64-entry delays equal, and the 16->32 and 64->128 increases
 * less than 100% because the root delay is window-size independent
 * (Section 4.3.3).
 *
 * Per-technology arbiter delays are calibrated jointly with the wakeup
 * model so that Table 2's wakeup+select column is reproduced exactly:
 * 2903.7/3369.4 ps (0.8 um), 1248.4/1484.8 ps (0.35 um), and
 * 578.0/724.0 ps (0.18 um) for {4-way, 32} / {8-way, 64}.
 */

#ifndef CESP_VLSI_SELECT_DELAY_HPP
#define CESP_VLSI_SELECT_DELAY_HPP

#include "vlsi/technology.hpp"

namespace cesp::vlsi {

/** Component breakdown of the selection critical path, in ps. */
struct SelectDelay
{
    double request_prop; //!< request propagation to the root
    double root;         //!< root arbiter cell
    double grant_prop;   //!< grant propagation back down

    double
    total() const
    {
        return request_prop + root + grant_prop;
    }
};

/** Calibrated selection delay model for one technology. */
class SelectDelayModel
{
  public:
    explicit SelectDelayModel(Process p);

    /** Number of arbiter levels: ceil(log4(window_size)), >= 1. */
    static int levels(int window_size);

    /**
     * Delay breakdown for selecting one instruction out of a window
     * of the given size (>= 2). The paper's model assumes one
     * functional unit is being scheduled; stacked selection for
     * multiple units is handled by the clock estimator.
     */
    SelectDelay delay(int window_size) const;

    /** Total selection delay in ps. */
    double
    totalPs(int window_size) const
    {
        return delay(window_size).total();
    }

    /**
     * Selection delay when @p num_units functional units of the same
     * type are scheduled (Section 4.3.1 points to [15] for the
     * multi-unit modification): grant decisions cascade, adding one
     * root-cell delay per doubling of the unit count.
     */
    double
    totalPs(int window_size, int num_units) const
    {
        double extra = 0.0;
        for (int n = 1; n < num_units; n *= 2)
            extra += t_root_;
        return totalPs(window_size) + extra;
    }

  private:
    double t_req_;   //!< per-level request propagation, ps
    double t_grant_; //!< per-level grant propagation, ps
    double t_root_;  //!< root cell delay, ps
};

} // namespace cesp::vlsi

#endif // CESP_VLSI_SELECT_DELAY_HPP
