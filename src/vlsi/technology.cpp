/**
 * @file
 * Calibrated technology parameters.
 *
 * The metal RC values are calibrated against Table 1 of the paper: a
 * 20500-lambda result wire must have a distributed-RC delay of
 * 184.9 ps in every technology (constant-wire-delay scaling model).
 * With metal capacitance held at 0.275 fF/um, that fixes the metal
 * resistance per micron for each process. The resulting values
 * (0.02 / 0.10 / 0.40 ohm per um for 0.8 / 0.35 / 0.18 um) are in line
 * with mid-90s process reports.
 */

#include "vlsi/technology.hpp"

#include "common/logging.hpp"

namespace cesp::vlsi {

namespace {

const Technology kTech0_8 = {
    Process::um0_8, "0.8um",
    0.8,        // feature_um
    0.4,        // lambda_um
    0.0199989,  // r_metal_ohm_um
    0.275,      // c_metal_ff_um
    0.8 / 0.18, // logic_scale
    2.9,        // wire_scale
};

const Technology kTech0_35 = {
    Process::um0_35, "0.35um",
    0.35,
    0.175,
    0.104484,
    0.275,
    0.35 / 0.18,
    1.75,
};

const Technology kTech0_18 = {
    Process::um0_18, "0.18um",
    0.18,
    0.09,
    0.395040,
    0.275,
    1.0,
    1.0,
};

} // namespace

const std::vector<Process> &
allProcesses()
{
    static const std::vector<Process> all = {
        Process::um0_8, Process::um0_35, Process::um0_18,
    };
    return all;
}

double
Technology::wireDelayPs(double length_lambda) const
{
    double len_um = lambdaToUm(length_lambda);
    // 0.5 * R [ohm/um] * C [fF/um] * L^2 [um^2] -> femtoseconds; the
    // fF supplies the 1e-15, so multiply by 1e-3 to get picoseconds.
    return 0.5 * r_metal_ohm_um * c_metal_ff_um * len_um * len_um * 1e-3;
}

const Technology &
technology(Process p)
{
    switch (p) {
      case Process::um0_8:
        return kTech0_8;
      case Process::um0_35:
        return kTech0_35;
      case Process::um0_18:
        return kTech0_18;
    }
    panic("unknown process id %d", static_cast<int>(p));
}

} // namespace cesp::vlsi
