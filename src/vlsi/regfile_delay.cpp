/**
 * @file
 * Implementation of the register file access-time model.
 *
 * Coefficients (0.18 um) are a fit in the style of Farkas et al.:
 * the decoder grows with log2 of the register count, the wordline
 * with the port count (cell width), the bitline with the register
 * count and, through the cell height, with the port count. Wire-
 * dominated terms scale across technologies like the wakeup model's
 * wire components; logic terms scale with feature size.
 */

#include "vlsi/regfile_delay.hpp"

#include <cmath>

#include "common/logging.hpp"

namespace cesp::vlsi {

namespace {

// 0.18 um base coefficients (ps).
constexpr double kDecodeBase = 60.0;
constexpr double kDecodePerLog2Reg = 12.0;
constexpr double kWordlineBase = 30.0;
constexpr double kWordlinePerPort = 3.2;
constexpr double kBitlineBase = 40.0;
constexpr double kBitlinePerReg = 0.5;
constexpr double kBitlinePerRegPort = 0.05417;
constexpr double kSenseBase = 50.0;
constexpr double kSensePerPort = 0.5;

} // namespace

RegfileDelay
RegfileDelayModel::delay(int num_regs, int read_ports,
                         int write_ports) const
{
    if (num_regs < 8 || num_regs > 1024)
        fatal("regfile model: %d registers outside [8, 1024]",
              num_regs);
    if (read_ports < 1 || write_ports < 1 ||
        read_ports + write_ports > 64)
        fatal("regfile model: port counts %d+%d out of range",
              read_ports, write_ports);

    double ports = read_ports + write_ports;
    double regs = num_regs;

    RegfileDelay d;
    d.decode = tech_->logic_scale *
        (kDecodeBase + kDecodePerLog2Reg * std::log2(regs));
    d.wordline = tech_->logic_scale * kWordlineBase +
        tech_->wire_scale * kWordlinePerPort * ports;
    d.bitline = tech_->logic_scale * kBitlineBase +
        tech_->wire_scale *
            (kBitlinePerReg * regs + kBitlinePerRegPort * regs * ports);
    d.senseamp =
        tech_->logic_scale * (kSenseBase + kSensePerPort * ports);
    return d;
}

} // namespace cesp::vlsi
