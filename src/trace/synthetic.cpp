/**
 * @file
 * Implementation of the synthetic trace generator.
 */

#include "trace/synthetic.hpp"

#include <cmath>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace cesp::trace {

namespace {

/** The generator's state for one trace, from the seed on. */
class Generator
{
  public:
    explicit Generator(const SyntheticParams &params)
        : params_(params), rng_(params.seed)
    {
        for (int i = 0; i < kRing; ++i)
            recent_dst_[i] = 1;
    }

    TraceOp make();

  private:
    const SyntheticParams &params_;
    Rng rng_;
    uint32_t pc_ = 0x00010000;
    // Ring of the most recent architectural destination registers,
    // used to realize dependence distances.
    static constexpr int kRing = 64;
    int recent_dst_[kRing] = {};
    int ring_pos_ = 0;
    int next_reg_ = 1;
    // Per-branch-site outcome pattern state.
    std::unordered_map<uint32_t, uint32_t> site_counts_;
};

TraceOp
Generator::make()
{
    TraceOp t;
    t.pc = pc_;
    uint32_t next = pc_ + 4;

    // Pick a source register at the configured dependence distance.
    auto dep_src = [&]() -> int8_t {
        double u = rng_.uniform();
        if (u <= 0.0)
            u = 1e-12;
        int k = 1 + static_cast<int>(
            -(params_.mean_dep_distance - 1.0) * std::log(u));
        if (k > kRing)
            k = kRing;
        int idx = (ring_pos_ - k % kRing + kRing) % kRing;
        return static_cast<int8_t>(recent_dst_[idx]);
    };
    auto alloc_dst = [&]() -> int8_t {
        int r = next_reg_;
        next_reg_ = next_reg_ == 30 ? 1 : next_reg_ + 1;
        recent_dst_[ring_pos_] = r;
        ring_pos_ = (ring_pos_ + 1) % kRing;
        return static_cast<int8_t>(r);
    };
    auto mem_addr = [&]() -> uint32_t {
        uint32_t ws = params_.working_set & ~3u;
        if (ws < 64)
            ws = 64;
        return 0x10000000u + (static_cast<uint32_t>(
            rng_.below(ws / 4)) * 4u);
    };

    double u = rng_.uniform();
    if (u < params_.load_frac) {
        t.op = isa::Opcode::LW;
        t.cls = isa::OpClass::Load;
        t.src1 = dep_src();
        t.dst = alloc_dst();
        t.mem_addr = mem_addr();
        t.mem_size = 4;
    } else if (u < params_.load_frac + params_.store_frac) {
        t.op = isa::Opcode::SW;
        t.cls = isa::OpClass::Store;
        t.src1 = dep_src();
        t.src2 = dep_src();
        t.mem_addr = mem_addr();
        t.mem_size = 4;
    } else if (u < params_.load_frac + params_.store_frac +
               params_.branch_frac) {
        t.op = isa::Opcode::BNE;
        t.cls = isa::OpClass::BranchCond;
        t.src1 = dep_src();
        if (rng_.chance(params_.two_src_frac))
            t.src2 = dep_src();
        // Patterned sites repeat a short taken/not-taken sequence a
        // history predictor can learn; noisy sites flip randomly.
        uint32_t &count = site_counts_[t.pc];
        bool noisy =
            (t.pc * 2654435761u >> 16) % 1000 <
            static_cast<uint32_t>(params_.noisy_branch_frac * 1000);
        if (noisy) {
            t.taken = rng_.chance(params_.taken_frac);
        } else {
            uint32_t period = 2 + ((t.pc >> 4) % 6);
            t.taken = (count % period) != 0;
        }
        ++count;
        if (t.taken) {
            // Loop-like control: mostly short backward jumps, with
            // occasional forward skips.
            uint32_t blk = static_cast<uint32_t>(
                1 + rng_.below(static_cast<uint64_t>(
                    params_.mean_block * 2.0)));
            if (rng_.chance(0.8)) {
                uint32_t back = blk * 16;
                next = t.pc >= 0x00010000u + back ? t.pc - back
                                                  : 0x00010000u;
            } else {
                next = t.pc + 4 + blk * 16;
            }
        }
    } else {
        t.op = isa::Opcode::ADD;
        t.cls = isa::OpClass::IntAlu;
        t.src1 = dep_src();
        if (rng_.chance(params_.two_src_frac))
            t.src2 = dep_src();
        t.dst = alloc_dst();
    }

    t.next_pc = next;
    pc_ = next;
    return t;
}

} // namespace

TraceBuffer
generateSynthetic(const SyntheticParams &params, uint64_t length)
{
    if (params.load_frac + params.store_frac + params.branch_frac >=
        1.0)
        fatal("synthetic trace: instruction-mix fractions sum to >= 1");
    if (params.mean_dep_distance < 1.0)
        fatal("synthetic trace: mean dependence distance must be >= 1");
    std::vector<TraceOp> ops;
    ops.reserve(length);
    Generator gen(params);
    for (uint64_t i = 0; i < length; ++i)
        ops.push_back(gen.make());
    TraceBuffer buf;
    buf.assign(std::move(ops));
    return buf;
}

} // namespace cesp::trace
