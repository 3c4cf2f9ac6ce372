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

#include <unordered_map>

#include "common/rng.hpp"
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

/** Replayable synthetic trace source. */
class SyntheticTrace : public TraceSource
{
  public:
    SyntheticTrace(const SyntheticParams &params, uint64_t length);

    bool next(TraceOp &out) override;
    void rewind() override;

    uint64_t length() const { return length_; }

  private:
    void regenerate();
    TraceOp make();

    SyntheticParams params_;
    uint64_t length_;
    uint64_t produced_ = 0;
    Rng rng_;
    uint32_t pc_ = 0x00010000;
    // Ring of the most recent architectural destination registers,
    // used to realize dependence distances.
    static constexpr int kRing = 64;
    int recent_dst_[kRing] = {};
    int ring_pos_ = 0;
    int next_reg_ = 1;
    uint64_t branch_seq_ = 0;
    // Per-branch-site outcome pattern state (this instance's only, so
    // instances stepped alternately stay independent).
    std::unordered_map<uint32_t, uint32_t> site_counts_;
};

/** Generate a full buffer (convenience for tests/benches). */
TraceBuffer generateSynthetic(const SyntheticParams &params,
                              uint64_t length);

} // namespace cesp::trace

#endif // CESP_TRACE_SYNTHETIC_HPP
