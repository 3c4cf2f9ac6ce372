/**
 * @file
 * Register file access-time model (paper Section 2.1, after Farkas,
 * Jouppi, and Chow, "Register File Design Considerations in
 * Dynamically Scheduled Processors", HPCA 1996).
 *
 * The paper excludes the register file from its critical-structure
 * study because it can be pipelined, but leans on its port scaling
 * twice: the physical register file of an IW-wide machine needs
 * ~3*IW ports (two reads, one write per instruction), and clustering
 * halves the port count per copy, "making the access time of the
 * register file faster" (Section 5.4). This model quantifies that:
 *
 *   Tregfile = Tdecode + Twordline + Tbitline + Tsenseamp
 *
 * where the storage cell grows linearly with the port count in both
 * dimensions (one wordline per port, one bitline pair per port), so
 * wordline/bitline wire lengths grow with ports and with the number
 * of registers. Calibrated at 0.18 um to sit between the rename map
 * table (a smaller RAM) and the wakeup CAM for the paper's design
 * points, with the Farkas-style superlinear port dependence.
 */

#ifndef CESP_VLSI_REGFILE_DELAY_HPP
#define CESP_VLSI_REGFILE_DELAY_HPP

#include "vlsi/technology.hpp"

namespace cesp::vlsi {

/** Component breakdown of a register file read, in ps. */
struct RegfileDelay
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

/** Calibrated register file access-time model for one technology. */
class RegfileDelayModel
{
  public:
    explicit RegfileDelayModel(Process p) : tech_(&technology(p)) {}

    /**
     * Access delay for a file of @p num_regs registers with
     * @p read_ports read and @p write_ports write ports.
     */
    RegfileDelay delay(int num_regs, int read_ports,
                       int write_ports) const;

    double
    totalPs(int num_regs, int read_ports, int write_ports) const
    {
        return delay(num_regs, read_ports, write_ports).total();
    }

    /**
     * Convenience: the file of an IW-wide machine (2*IW read ports,
     * IW write ports, Table 3's 120 registers by default).
     */
    double
    machinePs(int issue_width, int num_regs = 120) const
    {
        return totalPs(num_regs, 2 * issue_width, issue_width);
    }

  private:
    const Technology *tech_;
};

} // namespace cesp::vlsi

#endif // CESP_VLSI_REGFILE_DELAY_HPP
