/**
 * @file
 * Tests for the trace-analysis module (dataflow scheduling,
 * dependence statistics). The binary trace file format is tested in
 * test_tracefile.cpp.
 */

#include <gtest/gtest.h>

#include "trace/analysis.hpp"
#include "trace/synthetic.hpp"

using namespace cesp;
using namespace cesp::trace;

namespace {

TraceOp
aluOp(int dst, int src1 = -1, int src2 = -1)
{
    TraceOp t;
    t.op = isa::Opcode::ADD;
    t.cls = isa::OpClass::IntAlu;
    t.dst = static_cast<int8_t>(dst);
    t.src1 = static_cast<int8_t>(src1);
    t.src2 = static_cast<int8_t>(src2);
    return t;
}

} // namespace

TEST(DataflowSchedule, EmptyTrace)
{
    TraceBuffer buf;
    auto r = dataflowSchedule(buf);
    EXPECT_EQ(r.instructions, 0u);
    EXPECT_EQ(r.cycles, 0u);
}

TEST(DataflowSchedule, SerialChainHasIpcOne)
{
    TraceBuffer buf;
    buf.append(aluOp(1));
    for (int i = 0; i < 99; ++i)
        buf.append(aluOp(1, 1));
    auto r = dataflowSchedule(buf);
    EXPECT_EQ(r.cycles, 100u);
    EXPECT_DOUBLE_EQ(r.ipc, 1.0);
}

TEST(DataflowSchedule, IndependentOpsAreOneCycle)
{
    TraceBuffer buf;
    for (int i = 0; i < 100; ++i)
        buf.append(aluOp(1 + i % 24));
    auto r = dataflowSchedule(buf);
    EXPECT_EQ(r.cycles, 1u);
    EXPECT_DOUBLE_EQ(r.ipc, 100.0);
}

TEST(DataflowSchedule, IssueWidthCapsIpc)
{
    TraceBuffer buf;
    for (int i = 0; i < 100; ++i)
        buf.append(aluOp(1 + i % 24));
    ScheduleLimits lim;
    lim.issue_width = 4;
    auto r = dataflowSchedule(buf, lim);
    EXPECT_EQ(r.cycles, 25u);
    EXPECT_DOUBLE_EQ(r.ipc, 4.0);
}

TEST(DataflowSchedule, WindowSerializesDistantParallelism)
{
    // Two interleaved serial chains of length 50: unbounded window
    // -> IPC 2; window of 2 -> still 2 (neighbors are in different
    // chains); window of 1 -> in-order, IPC ~1.
    TraceBuffer buf;
    buf.append(aluOp(1));
    buf.append(aluOp(2));
    for (int i = 0; i < 49; ++i) {
        buf.append(aluOp(1, 1));
        buf.append(aluOp(2, 2));
    }
    EXPECT_NEAR(dataflowSchedule(buf).ipc, 2.0, 0.1);
    ScheduleLimits w1;
    w1.window = 1;
    EXPECT_NEAR(dataflowSchedule(buf, w1).ipc, 1.0, 0.05);
}

TEST(DataflowSchedule, MemoryDependencesRespected)
{
    // store to X (after a serial chain), then a load from X: with
    // memory deps the load waits; without, it issues at cycle 1.
    TraceBuffer buf;
    buf.append(aluOp(1));
    for (int i = 0; i < 9; ++i)
        buf.append(aluOp(1, 1));
    TraceOp st;
    st.op = isa::Opcode::SW;
    st.cls = isa::OpClass::Store;
    st.src1 = 1;
    st.mem_addr = 0x100;
    st.mem_size = 4;
    buf.append(st);
    TraceOp ld;
    ld.op = isa::Opcode::LW;
    ld.cls = isa::OpClass::Load;
    ld.dst = 5;
    ld.mem_addr = 0x100;
    ld.mem_size = 4;
    buf.append(ld);

    auto with = dataflowSchedule(buf);
    ScheduleLimits no_mem;
    no_mem.memory_deps = false;
    auto without = dataflowSchedule(buf, no_mem);
    EXPECT_GT(with.cycles, without.cycles);
    EXPECT_EQ(with.cycles, 12u); // chain 10 + store + load
}

TEST(DataflowSchedule, LimitsOnlyReduceIpc)
{
    SyntheticParams sp;
    TraceBuffer buf = generateSynthetic(sp, 20000);
    double unlimited = dataflowSchedule(buf).ipc;
    ScheduleLimits lim;
    lim.window = 64;
    double windowed = dataflowSchedule(buf, lim).ipc;
    lim.issue_width = 8;
    double both = dataflowSchedule(buf, lim).ipc;
    EXPECT_LE(windowed, unlimited + 1e-9);
    EXPECT_LE(both, windowed + 1e-9);
    EXPECT_LE(both, 8.0 + 1e-9);
}

TEST(DataflowSchedule, LargerWindowNeverHurts)
{
    SyntheticParams sp;
    TraceBuffer buf = generateSynthetic(sp, 20000);
    double prev = 0.0;
    for (int ws : {4, 8, 16, 32, 64, 128}) {
        ScheduleLimits lim;
        lim.window = ws;
        double ipc = dataflowSchedule(buf, lim).ipc;
        EXPECT_GE(ipc, prev - 1e-9) << ws;
        prev = ipc;
    }
}

TEST(AnalyzeDependences, SerialChain)
{
    TraceBuffer buf;
    buf.append(aluOp(1));
    for (int i = 0; i < 9; ++i)
        buf.append(aluOp(1, 1));
    auto d = analyzeDependences(buf);
    EXPECT_EQ(d.instructions, 10u);
    EXPECT_DOUBLE_EQ(d.distance.mean(), 1.0);
    EXPECT_NEAR(d.adjacent_frac, 0.9, 1e-9);
    EXPECT_NEAR(d.independent_frac, 0.1, 1e-9);
    EXPECT_EQ(d.critical_path, 10u);
}

TEST(AnalyzeDependences, InterleavedChainsHaveDistanceTwo)
{
    TraceBuffer buf;
    buf.append(aluOp(1));
    buf.append(aluOp(2));
    for (int i = 0; i < 20; ++i) {
        buf.append(aluOp(1, 1));
        buf.append(aluOp(2, 2));
    }
    auto d = analyzeDependences(buf);
    EXPECT_DOUBLE_EQ(d.distance.mean(), 2.0);
    EXPECT_DOUBLE_EQ(d.adjacent_frac, 0.0);
    EXPECT_EQ(d.critical_path, 21u);
}

TEST(AnalyzeDependences, SyntheticMeanTracksParameter)
{
    SyntheticParams sp;
    sp.mean_dep_distance = 8.0;
    sp.branch_frac = 0.0;
    sp.load_frac = 0.0;
    sp.store_frac = 0.0;
    TraceBuffer buf = generateSynthetic(sp, 30000);
    auto d = analyzeDependences(buf);
    EXPECT_NEAR(d.distance.mean(), 8.0, 2.0);
}
