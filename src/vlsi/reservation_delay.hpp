/**
 * @file
 * Reservation-table delay model (paper Section 5.3, Table 4).
 *
 * In the dependence-based microarchitecture the broadcast wakeup CAM
 * is replaced by a small RAM of reservation bits, one per physical
 * register, interrogated only by the instructions at the FIFO heads.
 * The table is laid out as ceil(P/8) entries of 8 bits with a column
 * MUX (the paper's example: 80 physical registers -> a 10-entry table
 * of 8 bits). Access delay is modeled as
 *
 *   Tresv = r0 + r1 * entries + r2 * IW
 *
 * calibrated at 0.18 um to Table 4: 192.1 ps (4-way, 80 registers) and
 * 251.7 ps (8-way, 128 registers); other technologies scale by the
 * rename-delay ratio since both are small multi-ported RAM accesses.
 */

#ifndef CESP_VLSI_RESERVATION_DELAY_HPP
#define CESP_VLSI_RESERVATION_DELAY_HPP

#include "vlsi/rename_delay.hpp"

namespace cesp::vlsi {

/** Calibrated reservation-table delay model for one technology. */
class ReservationDelayModel
{
  public:
    explicit ReservationDelayModel(Process p)
        : scale_(RenameDelayModel::ramScale(p)) {}

    /** Number of 8-bit table entries for a physical register count. */
    static int tableEntries(int phys_regs);

    /**
     * Access delay in ps for the given issue width and physical
     * register count.
     */
    double totalPs(int issue_width, int phys_regs) const;

  private:
    double scale_; //!< technology scaling relative to 0.18 um
};

} // namespace cesp::vlsi

#endif // CESP_VLSI_RESERVATION_DELAY_HPP
