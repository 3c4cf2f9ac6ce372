/**
 * @file
 * CMOS technology descriptions for the three feature sizes studied in
 * the paper (0.8 um, 0.35 um, 0.18 um). A Technology carries the
 * process parameters that the delay models need: the feature size, the
 * layout unit lambda (= feature/2), metal wire resistance and
 * capacitance per unit length, and the logic scaling factor relative
 * to the 0.18 um process.
 *
 * The wire RC values follow the paper's scaling model: metal wire
 * delay for a wire of fixed length *in lambda* is constant across
 * technologies (Section 4.4.3: "the delays are the same for the three
 * technologies since wire delays are constant according to the scaling
 * model assumed"). Metal capacitance per micron is held constant and
 * resistance per micron grows as the wire cross-section shrinks.
 */

#ifndef CESP_VLSI_TECHNOLOGY_HPP
#define CESP_VLSI_TECHNOLOGY_HPP

#include <string>
#include <vector>

namespace cesp::vlsi {

/** Identifiers for the three calibrated process generations. */
enum class Process
{
    um0_8,  //!< 0.8 um (lambda = 0.40 um)
    um0_35, //!< 0.35 um (lambda = 0.175 um)
    um0_18, //!< 0.18 um (lambda = 0.09 um)
};

/** All Process values, in descending feature size (paper order). */
const std::vector<Process> &allProcesses();

/** CMOS process parameters used by the delay models. */
struct Technology
{
    Process process;
    std::string name;       //!< e.g. "0.18um"
    double feature_um;      //!< drawn feature size in microns
    double lambda_um;       //!< layout unit: feature / 2
    double r_metal_ohm_um;  //!< metal resistance per micron of wire
    double c_metal_ff_um;   //!< metal capacitance per micron of wire
    /**
     * Gate (logic) delay scaling factor relative to the 0.18 um
     * process; pure logic paths scale proportionally to feature size.
     */
    double logic_scale;
    /** Cache/register-file wire delay scaling relative to 0.18 um. */
    double wire_scale;

    /**
     * Distributed-RC delay, in picoseconds, of a metal wire whose
     * length is given in lambda: 0.5 * R * C * L^2.
     */
    double wireDelayPs(double length_lambda) const;

    /** Wire length in microns for a length given in lambda. */
    double
    lambdaToUm(double length_lambda) const
    {
        return length_lambda * lambda_um;
    }
};

/** Look up the calibrated parameters for one of the three processes. */
const Technology &technology(Process p);

} // namespace cesp::vlsi

#endif // CESP_VLSI_TECHNOLOGY_HPP
