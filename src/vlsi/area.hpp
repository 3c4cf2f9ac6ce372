/**
 * @file
 * Transistor-count estimates for the issue-logic structures.
 *
 * The paper measures complexity as critical-path delay, noting that
 * it "can be variously quantified in terms such as number of
 * transistors, die area, and power dissipated" (Section 1). This
 * module supplies the transistor-count view for the structures the
 * dependence-based microarchitecture changes, using standard CMOS
 * cell costs (6T SRAM cell + 2T per extra port pair, 10T per CAM
 * tag-bit comparator, ~16T per arbiter cell):
 *
 *  - a W-entry wakeup CAM with IW result-tag ports,
 *  - the selection arbiter tree over W requesters,
 *  - the reservation table (one bit per physical register),
 *  - the FIFO storage and head/tail management.
 *
 * The punchline matches the delay view: the dependence-based window
 * logic is nearly an order of magnitude smaller than the CAM window
 * it replaces (experiments abl_transistors).
 */

#ifndef CESP_VLSI_AREA_HPP
#define CESP_VLSI_AREA_HPP

#include <cstdint>

namespace cesp::vlsi {

/** Transistor-count estimates (device counts, not um^2). */
class AreaModel
{
  public:
    /** Bits in one issue-window entry's payload (opcode, regs...). */
    static constexpr int kEntryPayloadBits = 64;
    /** Bits per operand tag (physical register designator). */
    static constexpr int kTagBits = 8;

    /**
     * Wakeup CAM: per entry, two operand tags with IW comparators
     * each plus the payload RAM; buffers drive IW tag buses.
     */
    static uint64_t wakeupCam(int window_size, int issue_width);

    /** Selection tree of 4-input arbiters over the window. */
    static uint64_t selectTree(int window_size);

    /** Reservation table: 1 bit per physical register, IW ports. */
    static uint64_t reservationTable(int phys_regs, int issue_width);

    /**
     * FIFO buffers: payload RAM plus head/tail pointers; no
     * comparators (the whole point).
     */
    static uint64_t fifoBuffers(int num_fifos, int depth);

    /** Window-based issue logic: CAM + select. */
    static uint64_t
    windowIssueLogic(int window_size, int issue_width)
    {
        return wakeupCam(window_size, issue_width) +
            selectTree(window_size);
    }

    /** Dependence-based issue logic: FIFOs + reservation + select. */
    static uint64_t
    dependenceIssueLogic(int num_fifos, int depth, int phys_regs,
                         int issue_width)
    {
        return fifoBuffers(num_fifos, depth) +
            reservationTable(phys_regs, issue_width) +
            selectTree(num_fifos < 2 ? 2 : num_fifos);
    }
};

} // namespace cesp::vlsi

#endif // CESP_VLSI_AREA_HPP
