/**
 * @file
 * Implementation of the reservation-table delay model.
 */

#include "vlsi/reservation_delay.hpp"

#include "common/logging.hpp"

namespace cesp::vlsi {

namespace {

// Calibrated at 0.18 um to Table 4 (192.1 ps at {4-way, 80 regs},
// 251.7 ps at {8-way, 128 regs}).
constexpr double kR0 = 108.77; // fixed decode + sense overhead
constexpr double kR1 = 5.933;  // per table entry (wordline/bitline)
constexpr double kR2 = 6.0;    // per issue-width port

} // namespace

int
ReservationDelayModel::tableEntries(int phys_regs)
{
    if (phys_regs < 1)
        fatal("reservation table: physical register count %d < 1",
              phys_regs);
    return (phys_regs + 7) / 8;
}

double
ReservationDelayModel::totalPs(int issue_width, int phys_regs) const
{
    if (issue_width < 1 || issue_width > 16)
        fatal("reservation table: issue width %d outside [1, 16]",
              issue_width);
    int entries = tableEntries(phys_regs);
    return scale_ * (kR0 + kR1 * entries + kR2 * issue_width);
}

} // namespace cesp::vlsi
