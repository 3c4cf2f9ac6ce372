/**
 * @file
 * CAM-scheme register rename delay model (paper Section 4.1.1).
 *
 * The alternative to the RAM map table: a content-addressable memory
 * with one entry per *physical* register (HAL SPARC64, DEC 21264).
 * Renaming matches the logical register designator against every
 * entry, so the delay grows with the physical register count — which
 * itself grows with issue width. The paper found the two schemes
 * comparable for its design space but the CAM less scalable, and
 * focused on the RAM scheme; this model reproduces that comparison:
 *
 *   Tcam = Ttagdrive(P, IW) + Ttagmatch(IW) + Tread(IW, P)
 *
 * calibrated at 0.18 um so that a 4-way/80-register CAM is within
 * ~10% of the 4-way RAM delay, an 8-way/128-register CAM is ~6%
 * *slower* than the 8-way RAM, and doubling the physical registers
 * visibly hurts the CAM while leaving the RAM untouched.
 */

#ifndef CESP_VLSI_RENAME_CAM_HPP
#define CESP_VLSI_RENAME_CAM_HPP

#include "vlsi/rename_delay.hpp"

namespace cesp::vlsi {

/** Component breakdown of the CAM rename critical path, in ps. */
struct RenameCamDelay
{
    double tag_drive; //!< logical designator broadcast over P entries
    double tag_match; //!< per-entry comparators
    double read;      //!< matched entry drives the physical designator

    double
    total() const
    {
        return tag_drive + tag_match + read;
    }
};

/** Calibrated CAM rename delay model for one technology. */
class RenameCamDelayModel
{
  public:
    explicit RenameCamDelayModel(Process p)
        : scale_(RenameDelayModel::ramScale(p)) {}

    /**
     * Delay for renaming @p issue_width instructions against a CAM
     * of @p phys_regs entries.
     */
    RenameCamDelay delay(int issue_width, int phys_regs) const;

    double
    totalPs(int issue_width, int phys_regs) const
    {
        return delay(issue_width, phys_regs).total();
    }

  private:
    double scale_; //!< technology scaling relative to 0.18 um
};

} // namespace cesp::vlsi

#endif // CESP_VLSI_RENAME_CAM_HPP
