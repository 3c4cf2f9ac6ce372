/**
 * @file
 * Stochastic synthetic trace generator.
 *
 * Produces dynamic instruction streams with controllable instruction
 * mix, register-dependence distance, branch behaviour, and memory
 * locality — used for parameter sweeps and property tests where a
 * workload with a *known* statistical character is more useful than a
 * real kernel (e.g. "long dependence chains stress the FIFO steering",
 * "independent instructions expose issue-width limits").
 */

#ifndef CESP_TRACE_SYNTHETIC_HPP
#define CESP_TRACE_SYNTHETIC_HPP

#include "trace/trace.hpp"

namespace cesp::trace {

/** Knobs for the synthetic generator. */
struct SyntheticParams
{
    uint64_t seed = 1;

    // Instruction mix (remaining fraction is integer ALU).
    double load_frac = 0.22;
    double store_frac = 0.12;
    double branch_frac = 0.16;

    /**
     * Register dependence: each source reads the destination of the
     * k-th previous result-producing instruction, where k is
     * geometric with this mean. Mean 1 produces serial chains; large
     * means produce highly parallel code.
     */
    double mean_dep_distance = 6.0;

    /** Probability a second source operand exists. */
    double two_src_frac = 0.6;

    /** Taken probability for conditional branches. */
    double taken_frac = 0.6;

    /**
     * Fraction of conditional branches whose outcome is random
     * (the rest strictly alternate with their static pc, which a
     * history predictor learns); controls the misprediction rate.
     */
    double noisy_branch_frac = 0.15;

    /** Data working-set size in bytes (cache behaviour knob). */
    uint32_t working_set = 16 * 1024;

    /** Mean basic-block length between branches, instructions. */
    double mean_block = 6.0;
};

/** Generate a trace of @p length records; fatal on parameters out of
 *  range. The same parameters always give the same records. */
TraceBuffer generateSynthetic(const SyntheticParams &params,
                              uint64_t length);

} // namespace cesp::trace

#endif // CESP_TRACE_SYNTHETIC_HPP
