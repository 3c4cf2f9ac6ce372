/**
 * @file
 * Unit tests for the trace layer: buffer semantics, mix computation,
 * and the synthetic generator's statistical and determinism
 * properties.
 */

#include <gtest/gtest.h>

#include "trace/synthetic.hpp"
#include "trace/trace.hpp"

using namespace cesp;
using namespace cesp::trace;

TEST(TraceBuffer, AppendKeepsOrder)
{
    TraceBuffer buf;
    EXPECT_TRUE(buf.empty());
    TraceOp a;
    a.pc = 4;
    TraceOp b;
    b.pc = 8;
    buf.append(a);
    buf.append(b);
    ASSERT_EQ(buf.size(), 2u);
    EXPECT_EQ(buf[0].pc, 4u);
    EXPECT_EQ(buf[1].pc, 8u);
}

TEST(TraceOp, Predicates)
{
    TraceOp t;
    t.cls = isa::OpClass::Load;
    EXPECT_TRUE(t.isLoad());
    EXPECT_FALSE(t.isStore());
    t.cls = isa::OpClass::Store;
    EXPECT_TRUE(t.isStore());
    t.cls = isa::OpClass::BranchCond;
    EXPECT_TRUE(t.isCondBranch());

    t.dst = 0;
    EXPECT_FALSE(t.hasDst()); // r0 is not a dependence
    t.dst = -1;
    EXPECT_FALSE(t.hasDst());
    t.dst = 5;
    EXPECT_TRUE(t.hasDst());
}

TEST(Synthetic, DeterministicForSameSeed)
{
    SyntheticParams p;
    p.seed = 42;
    TraceBuffer a = generateSynthetic(p, 5000);
    TraceBuffer b = generateSynthetic(p, 5000);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc) << i;
        EXPECT_EQ(a[i].cls, b[i].cls) << i;
        EXPECT_EQ(a[i].taken, b[i].taken) << i;
    }
}

TEST(Synthetic, MixMatchesParameters)
{
    SyntheticParams p;
    p.load_frac = 0.30;
    p.store_frac = 0.10;
    p.branch_frac = 0.20;
    TraceBuffer buf = generateSynthetic(p, 50000);
    TraceMix mix = computeMix(buf);
    EXPECT_NEAR(mix.frac(mix.loads), 0.30, 0.02);
    EXPECT_NEAR(mix.frac(mix.stores), 0.10, 0.02);
    EXPECT_NEAR(mix.frac(mix.cond_branches), 0.20, 0.02);
    EXPECT_NEAR(mix.frac(mix.int_alu), 0.40, 0.02);
}

TEST(Synthetic, TakenFractionOnNoisyBranches)
{
    SyntheticParams p;
    p.noisy_branch_frac = 1.0; // all branches random
    p.taken_frac = 0.7;
    TraceBuffer buf = generateSynthetic(p, 50000);
    uint64_t taken = 0, total = 0;
    for (const auto &op : buf.ops()) {
        if (op.isCondBranch()) {
            ++total;
            taken += op.taken;
        }
    }
    ASSERT_GT(total, 1000u);
    EXPECT_NEAR(static_cast<double>(taken) /
                static_cast<double>(total), 0.7, 0.03);
}

TEST(Synthetic, MemoryAddressesWithinWorkingSet)
{
    SyntheticParams p;
    p.working_set = 4096;
    TraceBuffer buf = generateSynthetic(p, 20000);
    for (const auto &op : buf.ops()) {
        if (op.isLoad() || op.isStore()) {
            EXPECT_GE(op.mem_addr, 0x10000000u);
            EXPECT_LT(op.mem_addr, 0x10000000u + 4096u);
            EXPECT_EQ(op.mem_addr % 4, 0u);
        }
    }
}

TEST(Synthetic, DependenceDistanceControlsSerialization)
{
    // Short mean dependence distance -> most sources name the most
    // recent destinations. Measure the mean distance directly.
    auto mean_dist = [](double mean_dep) {
        SyntheticParams p;
        p.mean_dep_distance = mean_dep;
        p.branch_frac = 0.0;
        p.load_frac = 0.0;
        p.store_frac = 0.0;
        TraceBuffer buf = generateSynthetic(p, 20000);
        // Reconstruct: track order of destination writes.
        std::vector<int> last_writer_pos(64, -1);
        double total = 0;
        uint64_t n = 0;
        int pos = 0;
        for (const auto &op : buf.ops()) {
            if (op.src1 > 0 && last_writer_pos[op.src1] >= 0) {
                total += pos - last_writer_pos[op.src1];
                ++n;
            }
            if (op.dst > 0)
                last_writer_pos[op.dst] = pos;
            ++pos;
        }
        return total / static_cast<double>(n);
    };
    double tight = mean_dist(1.0);
    double loose = mean_dist(12.0);
    EXPECT_LT(tight, 3.0);
    EXPECT_GT(loose, tight * 2.0);
}

TEST(Synthetic, BadParametersFatal)
{
    SyntheticParams p;
    p.load_frac = 0.6;
    p.store_frac = 0.5;
    EXPECT_EXIT(generateSynthetic(p, 10), ::testing::ExitedWithCode(1),
                "mix");
    SyntheticParams q;
    q.mean_dep_distance = 0.5;
    EXPECT_EXIT(generateSynthetic(q, 10), ::testing::ExitedWithCode(1),
                "dependence");
}

TEST(ComputeMix, CountsAllClasses)
{
    TraceBuffer buf;
    auto push = [&](isa::OpClass c) {
        TraceOp t;
        t.cls = c;
        buf.append(t);
    };
    push(isa::OpClass::Load);
    push(isa::OpClass::Store);
    push(isa::OpClass::BranchCond);
    push(isa::OpClass::BranchUncond);
    push(isa::OpClass::BranchInd);
    push(isa::OpClass::IntAlu);
    push(isa::OpClass::Halt);
    TraceMix m = computeMix(buf);
    EXPECT_EQ(m.total, 7u);
    EXPECT_EQ(m.loads, 1u);
    EXPECT_EQ(m.stores, 1u);
    EXPECT_EQ(m.cond_branches, 1u);
    EXPECT_EQ(m.uncond, 2u);
    EXPECT_EQ(m.int_alu, 1u);
    EXPECT_EQ(m.other, 1u);
}
