/**
 * @file
 * Tests for the seven benchmark kernels: functional correctness
 * (golden checksums), trace properties, and per-benchmark character
 * (instruction mix signatures that make each kernel a stand-in for
 * its SPEC'95 counterpart).
 */

#include <gtest/gtest.h>

#include "func/emulator.hpp"
#include "trace/trace.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;
using namespace cesp::workloads;

TEST(Workloads, RegistryHasTheSevenBenchmarks)
{
    auto names = workloadNames();
    ASSERT_EQ(names.size(), 7u);
    EXPECT_EQ(names[0], "compress");
    EXPECT_EQ(names[1], "gcc");
    EXPECT_EQ(names[2], "go");
    EXPECT_EQ(names[3], "li");
    EXPECT_EQ(names[4], "m88ksim");
    EXPECT_EQ(names[5], "perl");
    EXPECT_EQ(names[6], "vortex");
}

TEST(Workloads, LookupByNameAndUnknownFatal)
{
    EXPECT_EQ(workload("li").name, "li");
    EXPECT_EXIT(workload("nope"), ::testing::ExitedWithCode(1),
                "unknown workload");
}

TEST(Workloads, WrongChecksumOrNoHaltIsFatal)
{
    Workload wrong = workload("li");
    wrong.expected_console = "wrong";
    EXPECT_EXIT(traceOf(wrong), ::testing::ExitedWithCode(1),
                "li checksum mismatch: got '.*', want 'wrong'");
    Workload short_bound = workload("li");
    short_bound.max_instructions = 10;
    EXPECT_EXIT(traceOf(short_bound), ::testing::ExitedWithCode(1),
                "li did not halt within 10 instructions");
}

class WorkloadRun : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WorkloadRun, HaltsWithGoldenChecksum)
{
    const Workload &w = workload(GetParam());
    trace::TraceBuffer buf;
    func::ExecResult r =
        func::runProgram(w.source, w.max_instructions, &buf);
    EXPECT_TRUE(r.halted) << w.name;
    EXPECT_EQ(r.console, w.expected_console) << w.name;
    EXPECT_EQ(r.faults, 0u) << w.name;
    // Meaningful length: long enough to exercise the pipelines, short
    // enough to keep the harness fast.
    EXPECT_GT(buf.size(), 100000u) << w.name;
    EXPECT_LT(buf.size(), 3000000u) << w.name;
}

TEST_P(WorkloadRun, TraceIsWellFormed)
{
    const Workload &w = workload(GetParam());
    trace::TraceBuffer buf = traceOf(w);
    ASSERT_GT(buf.size(), 0u);
    uint64_t control_consistent = 0;
    for (size_t i = 0; i + 1 < buf.size(); ++i) {
        const trace::TraceOp &op = buf[i];
        if (op.isLoad() || op.isStore()) {
            EXPECT_GT(op.mem_size, 0) << w.name;
            EXPECT_NE(op.mem_addr, 0u) << w.name;
        }
        if (op.isCondBranch()) {
            // The successor is the next dynamic instruction.
            bool sequential = buf[i + 1].pc == op.pc + 4;
            EXPECT_EQ(op.taken, !sequential) << w.name << " @" << i;
            ++control_consistent;
        }
    }
    EXPECT_GT(control_consistent, 100u);
    // The final op is the halt.
    EXPECT_EQ(buf[buf.size() - 1].cls, isa::OpClass::Halt);
}

INSTANTIATE_TEST_SUITE_P(AllSeven, WorkloadRun,
                         ::testing::Values("compress", "gcc", "go",
                                           "li", "m88ksim", "perl",
                                           "vortex"));

// ---- per-benchmark character -----------------------------------------------

namespace {

trace::TraceMix
mixOf(const char *name)
{
    trace::TraceBuffer buf = traceOf(workload(name));
    return trace::computeMix(buf);
}

} // namespace

TEST(WorkloadCharacter, GoIsBranchy)
{
    trace::TraceMix m = mixOf("go");
    EXPECT_GT(m.frac(m.cond_branches), 0.2);
}

TEST(WorkloadCharacter, M88ksimHasFewConditionalBranches)
{
    trace::TraceMix m = mixOf("m88ksim");
    EXPECT_LT(m.frac(m.cond_branches), 0.08);
}

TEST(WorkloadCharacter, LiIsLoadDominated)
{
    trace::TraceMix m = mixOf("li");
    EXPECT_GT(m.frac(m.loads), 0.2);
}

TEST(WorkloadCharacter, VortexIsMemoryRich)
{
    trace::TraceMix m = mixOf("vortex");
    EXPECT_GT(m.frac(m.loads) + m.frac(m.stores), 0.3);
    EXPECT_GT(m.frac(m.stores), 0.08); // record copies
}

TEST(WorkloadCharacter, AllKernelsUseMemoryAndControl)
{
    for (const Workload &w : allWorkloads()) {
        trace::TraceBuffer buf = traceOf(w);
        trace::TraceMix m = trace::computeMix(buf);
        EXPECT_GT(m.frac(m.loads), 0.02) << w.name;
        EXPECT_GT(m.frac(m.cond_branches) + m.frac(m.uncond), 0.04)
            << w.name;
    }
}

TEST(ExtraWorkloads, RegisteredSeparately)
{
    // The paper's seven stay untouched; extras are additive.
    EXPECT_EQ(allWorkloads().size(), 7u);
    ASSERT_EQ(extraWorkloads().size(), 1u);
    EXPECT_EQ(extraWorkloads()[0].name, "tomcatv");
    EXPECT_EQ(workload("tomcatv").name, "tomcatv");
}

TEST(ExtraWorkloads, TomcatvExercisesTheFpPipeline)
{
    trace::TraceBuffer buf = traceOf(workload("tomcatv"));
    uint64_t fp_ops = 0;
    for (size_t i = 0; i < buf.size(); ++i) {
        const trace::TraceOp &op = buf[i];
        if (op.dst >= isa::kFpRegBase || op.src1 >= isa::kFpRegBase ||
            op.src2 >= isa::kFpRegBase)
            ++fp_ops;
    }
    EXPECT_GT(static_cast<double>(fp_ops) /
              static_cast<double>(buf.size()), 0.3);
}

TEST(ExtraWorkloads, TomcatvHaltsWithGolden)
{
    const Workload &w = workload("tomcatv");
    func::ExecResult r =
        func::runProgram(w.source, w.max_instructions, nullptr);
    EXPECT_TRUE(r.halted);
    EXPECT_EQ(r.console, w.expected_console);
}

TEST(Workloads, TracesAreDeterministic)
{
    trace::TraceBuffer a = traceOf(workload("compress"));
    trace::TraceBuffer b = traceOf(workload("compress"));
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i += 1000) {
        EXPECT_EQ(a[i].pc, b[i].pc) << i;
        EXPECT_EQ(a[i].mem_addr, b[i].mem_addr) << i;
    }
}
