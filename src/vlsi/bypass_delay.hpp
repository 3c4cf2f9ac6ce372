/**
 * @file
 * Operand bypass delay model (paper Section 4.4, Table 1).
 *
 * Bypass delay is dominated by the distributed-RC delay of the result
 * wires: Tbypass = 0.5 * Rmetal * Cmetal * L^2 (Section 4.4.2). The
 * result-wire length is set by the layout: functional units stacked
 * around the register file, giving a length that grows quadratically
 * with issue width (the register file height itself grows with port
 * count). The length model
 *
 *   L(IW) = 4125 * IW + 250 * IW^2   [lambda]
 *
 * passes exactly through the paper's extracted lengths (Table 1:
 * 20500 lambda at 4-way, 49000 lambda at 8-way); with the calibrated
 * metal RC this reproduces 184.9 ps and 1056.4 ps in every technology
 * (wire delay does not improve with feature size under the paper's
 * scaling model). The model also reports the number of bypass paths,
 * IW^2 * 2 * S for S pipestages past the first result-producing stage
 * (Section 4.4, citing Ahuja et al.).
 */

#ifndef CESP_VLSI_BYPASS_DELAY_HPP
#define CESP_VLSI_BYPASS_DELAY_HPP

#include "vlsi/technology.hpp"

namespace cesp::vlsi {

/** Calibrated bypass delay model for one technology. */
class BypassDelayModel
{
  public:
    explicit BypassDelayModel(Process p) : tech_(technology(p)) {}
    explicit BypassDelayModel(const Technology &t) : tech_(t) {}

    /** Result-wire length in lambda for the given issue width. */
    static double wireLengthLambda(int issue_width);

    /** Bypass (result-wire) delay in ps. */
    double totalPs(int issue_width) const;

    /**
     * Number of bypass paths for a machine with the given issue width
     * and the given number of pipestages after the first result-
     * producing stage, assuming 2-input functional units.
     */
    static int numBypassPaths(int issue_width, int stages_after_result);

    const Technology &tech() const { return tech_; }

  private:
    Technology tech_;
};

} // namespace cesp::vlsi

#endif // CESP_VLSI_BYPASS_DELAY_HPP
