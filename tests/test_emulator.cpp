/**
 * @file
 * Unit tests for the functional emulator: per-opcode semantics,
 * memory behaviour, control flow, console output, and trace capture.
 */

#include <gtest/gtest.h>

#include <vector>

#include "asm/assembler.hpp"
#include "func/emulator.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;
using namespace cesp::func;

namespace {

/** Run a snippet and return the emulator for state inspection. */
Emulator
runSnippet(const std::string &body, uint64_t max = 100000)
{
    assembler::Program p =
        assembler::assembleOrDie("main:\n" + body + "\n halt\n");
    Emulator emu(p);
    emu.run(max);
    return emu;
}

} // namespace

TEST(Emulator, ArithmeticOps)
{
    Emulator e = runSnippet(R"(
        li t0, 7
        li t1, -3
        add s0, t0, t1      # 4
        sub s1, t0, t1      # 10
        mul s2, t0, t1      # -21
        div s3, t0, t1      # -2 (trunc toward zero)
        rem s4, t0, t1      # 1
        mulh s5, t0, t1     # high word of -21 = -1
)");
    EXPECT_EQ(e.intReg(16), 4u);
    EXPECT_EQ(e.intReg(17), 10u);
    EXPECT_EQ(e.intReg(18), static_cast<uint32_t>(-21));
    EXPECT_EQ(e.intReg(19), static_cast<uint32_t>(-2));
    EXPECT_EQ(e.intReg(20), 1u);
    EXPECT_EQ(e.intReg(21), 0xffffffffu);
}

TEST(Emulator, LogicAndShifts)
{
    Emulator e = runSnippet(R"(
        li t0, 0xf0f0
        li t1, 0x0ff0
        and s0, t0, t1
        or  s1, t0, t1
        xor s2, t0, t1
        nor s3, t0, t1
        li  t2, 0x80000000
        srai s4, t2, 4
        srli s5, t2, 4
        slli s6, t1, 4
        li  t3, 36          # shift amounts mask to 5 bits
        sllv s7, t1, t3
        srlv t4, t2, t3
        srav t5, t2, t3
        xori t6, t1, 0x00ff
)");
    EXPECT_EQ(e.intReg(16), 0x00f0u);
    EXPECT_EQ(e.intReg(17), 0xfff0u);
    EXPECT_EQ(e.intReg(18), 0xff00u);
    EXPECT_EQ(e.intReg(19), 0xffff000fu);
    EXPECT_EQ(e.intReg(20), 0xf8000000u);
    EXPECT_EQ(e.intReg(21), 0x08000000u);
    EXPECT_EQ(e.intReg(22), 0xff00u);
    EXPECT_EQ(e.intReg(23), 0xff00u); // shift amount 36 masks to 4
    EXPECT_EQ(e.intReg(12), 0x08000000u);
    EXPECT_EQ(e.intReg(13), 0xf8000000u);
    EXPECT_EQ(e.intReg(14), 0x0f0fu);
}

TEST(Emulator, Comparisons)
{
    Emulator e = runSnippet(R"(
        li t0, -1
        li t1, 1
        slt  s0, t0, t1     # signed: -1 < 1 -> 1
        sltu s1, t0, t1     # unsigned: 0xffffffff < 1 -> 0
        slti s2, t0, 0      # 1
        sltiu s3, t1, 2     # 1
)");
    EXPECT_EQ(e.intReg(16), 1u);
    EXPECT_EQ(e.intReg(17), 0u);
    EXPECT_EQ(e.intReg(18), 1u);
    EXPECT_EQ(e.intReg(19), 1u);
}

TEST(Emulator, ZeroRegisterIsImmutable)
{
    Emulator e = runSnippet(R"(
        li t0, 5
        add zero, t0, t0
        addi zero, zero, 99
        move s0, zero
)");
    EXPECT_EQ(e.intReg(0), 0u);
    EXPECT_EQ(e.intReg(16), 0u);
}

TEST(Emulator, DivideByZeroFaultsToZero)
{
    Emulator e = runSnippet(R"(
        li t0, 5
        li t1, 0
        div s0, t0, t1
        rem s1, t0, t1
)");
    EXPECT_EQ(e.intReg(16), 0u);
    EXPECT_EQ(e.intReg(17), 0u);
    EXPECT_EQ(e.faults(), 2u);
}

TEST(Emulator, LoadsAndStoresAllSizes)
{
    Emulator e = runSnippet(R"(
        la  s0, buf
        li  t0, 0x12345678
        sw  t0, 0(s0)
        lw  s1, 0(s0)
        lh  s2, 0(s0)       # 0x5678 sign-extended (positive)
        lhu s3, 2(s0)       # 0x1234
        lb  s4, 3(s0)       # 0x12
        lbu s5, 0(s0)       # 0x78
        li  t1, -2
        sh  t1, 8(s0)
        lh  s6, 8(s0)       # -2
        lhu s7, 8(s0)       # 0xfffe
        .data
buf:    .space 16
        .text
)");
    EXPECT_EQ(e.intReg(17), 0x12345678u);
    EXPECT_EQ(e.intReg(18), 0x5678u);
    EXPECT_EQ(e.intReg(19), 0x1234u);
    EXPECT_EQ(e.intReg(20), 0x12u);
    EXPECT_EQ(e.intReg(21), 0x78u);
    EXPECT_EQ(e.intReg(22), static_cast<uint32_t>(-2));
    EXPECT_EQ(e.intReg(23), 0xfffeu);
}

TEST(Emulator, SignExtendingByteLoad)
{
    Emulator e = runSnippet(R"(
        la s0, b
        lb s1, 0(s0)
        lbu s2, 0(s0)
        .data
b:      .byte 0x80
        .text
)");
    EXPECT_EQ(e.intReg(17), 0xffffff80u);
    EXPECT_EQ(e.intReg(18), 0x80u);
}

TEST(Emulator, BranchesAllConditions)
{
    Emulator e = runSnippet(R"(
        li s0, 0
        li t0, -1
        li t1, 1
        beq t0, t0, l1
        j bad
l1:     addi s0, s0, 1
        bne t0, t1, l2
        j bad
l2:     addi s0, s0, 1
        blt t0, t1, l3
        j bad
l3:     addi s0, s0, 1
        bge t1, t0, l4
        j bad
l4:     addi s0, s0, 1
        bltu t1, t0, l5     # unsigned: 1 < 0xffffffff
        j bad
l5:     addi s0, s0, 1
        bgeu t0, t1, l6
        j bad
l6:     addi s0, s0, 1
        j done
bad:    li s0, -1
done:   nop
)");
    EXPECT_EQ(e.intReg(16), 6u);
}

TEST(Emulator, CallAndReturn)
{
    Emulator e = runSnippet(R"(
        li a0, 6
        jal square
        move s0, v0         # 36
        li a0, 9
        la t0, square
        jalr ra, t0
        move s1, v0         # 81
        j after
square: mul v0, a0, a0
        jr ra
after:  nop
)");
    EXPECT_EQ(e.intReg(16), 36u);
    EXPECT_EQ(e.intReg(17), 81u);
}

TEST(Emulator, FloatingPoint)
{
    Emulator e = runSnippet(R"(
        li t0, 0x40400000   # 3.0f
        li t1, 0x40000000   # 2.0f
        fmvi f1, t0
        fmvi f2, t1
        fadd f3, f1, f2     # 5.0
        fsub f4, f1, f2     # 1.0
        fmul f5, f1, f2     # 6.0
        fdiv f6, f1, f2     # 1.5
        fcmplt s0, f2, f1   # 1
        fcmplt s1, f1, f2   # 0
        la  t2, fbuf
        fsw f6, 0(t2)
        flw f7, 0(t2)
        .data
fbuf:   .space 8
        .text
)");
    EXPECT_FLOAT_EQ(e.fpReg(3), 5.0f);
    EXPECT_FLOAT_EQ(e.fpReg(4), 1.0f);
    EXPECT_FLOAT_EQ(e.fpReg(5), 6.0f);
    EXPECT_FLOAT_EQ(e.fpReg(6), 1.5f);
    EXPECT_FLOAT_EQ(e.fpReg(7), 1.5f);
    EXPECT_EQ(e.intReg(16), 1u);
    EXPECT_EQ(e.intReg(17), 0u);
}

TEST(Emulator, ConsoleOutput)
{
    Emulator e = runSnippet(R"(
        li a0, 'h'
        putc a0
        li a0, 'i'
        putc a0
)");
    EXPECT_EQ(e.console(), "hi");
}

TEST(Emulator, InstructionLimitStopsRunaway)
{
    assembler::Program p =
        assembler::assembleOrDie("main: j main\n");
    Emulator emu(p);
    ExecResult r = emu.run(1000);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.instructions, 1000u);
}

TEST(Emulator, StackPointerInitialized)
{
    Emulator e = runSnippet(R"(
        move s0, sp
        addi sp, sp, -16
        sw s0, 0(sp)
        lw s1, 0(sp)
)");
    EXPECT_EQ(e.intReg(16), assembler::kStackTop);
    EXPECT_EQ(e.intReg(17), assembler::kStackTop);
}

TEST(Emulator, TraceCaptureMatchesExecution)
{
    assembler::Program p = assembler::assembleOrDie(R"(
main:   li  t0, 3
        la  s0, buf
        sw  t0, 4(s0)
        lw  t1, 4(s0)
        beq t0, t1, ok
        nop
ok:     halt
        .data
buf:    .space 16
)");
    Emulator emu(p);
    trace::TraceBuffer buf;
    emu.run(1000, &buf);
    ASSERT_EQ(buf.size(), 7u); // li, la(2), sw, lw, beq, halt
    const trace::TraceOp &sw_op = buf[3];
    EXPECT_TRUE(sw_op.isStore());
    EXPECT_EQ(sw_op.mem_addr, assembler::kDataBase + 4);
    EXPECT_EQ(sw_op.mem_size, 4);
    const trace::TraceOp &lw_op = buf[4];
    EXPECT_TRUE(lw_op.isLoad());
    EXPECT_EQ(lw_op.mem_addr, assembler::kDataBase + 4);
    EXPECT_GT(lw_op.dst, 0);
    const trace::TraceOp &br = buf[5];
    EXPECT_TRUE(br.isCondBranch());
    EXPECT_TRUE(br.taken);
    EXPECT_EQ(buf[6].pc, br.pc + 8); // ok: halt, past the nop
    // pcs are sequential where no branch intervenes.
    EXPECT_EQ(buf[1].pc, buf[0].pc + 4);
}

TEST(Emulator, TraceNextPcThroughJumps)
{
    assembler::Program p = assembler::assembleOrDie(R"(
main:   jal f
        halt
f:      jr ra
)");
    Emulator emu(p);
    trace::TraceBuffer buf;
    emu.run(1000, &buf);
    ASSERT_EQ(buf.size(), 3u);
    EXPECT_EQ(buf[1].pc, buf[0].pc + 8); // to f
    EXPECT_EQ(buf[2].pc, buf[0].pc + 4); // jr back to halt
    EXPECT_TRUE(buf[0].taken);
    EXPECT_TRUE(buf[1].taken);
}

TEST(Memory, UnmappedReadsZeroWritesAllocate)
{
    Memory m;
    EXPECT_EQ(m.read32(0x5000), 0u);
    EXPECT_EQ(m.residentPages(), 0u);
    m.write32(0x5000, 42);
    EXPECT_EQ(m.read32(0x5000), 42u);
    EXPECT_EQ(m.residentPages(), 1u);
}

TEST(Memory, CrossPageAccesses)
{
    Memory m;
    uint32_t boundary = 2 * Memory::kPageSize - 2;
    m.write32(boundary, 0xa1b2c3d4u);
    EXPECT_EQ(m.read32(boundary), 0xa1b2c3d4u);
    EXPECT_EQ(m.read16(boundary), 0xc3d4u);
    EXPECT_EQ(m.read16(boundary + 2), 0xa1b2u);
    EXPECT_EQ(m.residentPages(), 2u);
}

TEST(Memory, LittleEndianLayout)
{
    Memory m;
    m.write32(0x100, 0x11223344u);
    EXPECT_EQ(m.read8(0x100), 0x44u);
    EXPECT_EQ(m.read8(0x103), 0x11u);
}

TEST(Memory, UnmappedReadsZeroAndFirstWriteZeroesItsPage)
{
    Memory m;
    for (uint32_t a : {0x0u, 0x12345678u, 0xfffffffcu})
        EXPECT_EQ(m.read32(a), 0u) << a;
    EXPECT_EQ(m.read8(0xffffffffu), 0u);
    EXPECT_EQ(m.residentPages(), 0u) << "reads must not allocate";

    const uint32_t addr = 0x12345678u;
    m.write8(addr, 0xab);
    const uint32_t base = addr & ~(Memory::kPageSize - 1);
    for (uint32_t off = 0; off < Memory::kPageSize; ++off)
        EXPECT_EQ(m.read8(base + off), base + off == addr ? 0xab : 0)
            << off;
}

TEST(Memory, WordAccessesAcrossPageAndTableBoundaries)
{
    // A page edge, the edge of one page-table's 4 MB span, and the top
    // of the address space (which wraps to address 0).
    for (uint32_t edge : {Memory::kPageSize, 0x00400000u, 0u}) {
        for (uint32_t back = 1; back <= 3; ++back) {
            Memory m;
            const uint32_t a = edge - back;
            m.write32(a, 0xa1b2c3d4u);
            EXPECT_EQ(m.read32(a), 0xa1b2c3d4u) << a;
            EXPECT_EQ(m.read8(a), 0xd4u) << a;
            EXPECT_EQ(m.read8(a + 3), 0xa1u) << a;
            EXPECT_EQ(m.residentPages(), 2u) << a;
        }
    }
}

TEST(Memory, ResidentPagesCountsTouchedPages)
{
    Memory m;
    m.write32(0x1000, 1);
    m.write32(0x1ffc, 2); // same page
    EXPECT_EQ(m.residentPages(), 1u);
    m.write8(0x2000, 3);
    m.write16(0x7fff0000u, 4); // another page table
    m.write32(0xfffff000u, 5); // the last page
    EXPECT_EQ(m.residentPages(), 4u);
    m.read32(0x40000000u); // reads never allocate
    EXPECT_EQ(m.residentPages(), 4u);
    EXPECT_EQ(m.read32(0x1ffc), 2u);
    EXPECT_EQ(m.read16(0x7fff0000u), 4u);
    EXPECT_EQ(m.read32(0xfffff000u), 5u);
}

TEST(Emulator, SelfModifyingCodeRunsTheNewWord)
{
    // patch runs once as `addi a0, zero, 1`, then the program copies
    // the word at tmpl over it and runs it again: the second run must
    // execute (and trace) the new word, not a stale decode.
    assembler::Program p = assembler::assembleOrDie(R"(
main:   li   s2, 0
patch:  addi a0, zero, 1
        bnez s2, done
        li   s2, 1
        la   s0, patch
        la   s1, tmpl
        lw   t0, 0(s1)
        sw   t0, 0(s0)
        j    patch
done:   halt
tmpl:   ori  a0, zero, 42
)");
    Emulator emu(p);
    trace::TraceBuffer buf;
    ExecResult r = emu.run(1000, &buf);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(emu.intReg(4), 42u); // a0
    std::vector<isa::Opcode> at_patch;
    for (const trace::TraceOp &op : buf.ops())
        if (op.pc == buf[1].pc)
            at_patch.push_back(op.op);
    EXPECT_EQ(at_patch, (std::vector<isa::Opcode>{isa::Opcode::ADDI,
                                                  isa::Opcode::ORI}));
}

TEST(Emulator, UnalignedAccessesCounted)
{
    Emulator e = runSnippet(R"(
        la  s0, buf
        li  t0, 7
        sw  t0, 1(s0)       # unaligned word store
        lw  t1, 1(s0)       # unaligned word load
        lh  t2, 3(s0)       # unaligned half load
        lw  t3, 4(s0)       # aligned
        lb  t4, 5(s0)       # bytes are never unaligned
        .data
buf:    .space 16
        .text
)");
    EXPECT_EQ(e.unalignedAccesses(), 3u);
    EXPECT_EQ(e.intReg(9), 7u); // the unaligned round trip works
}

TEST(Emulator, WorkloadKernelsAreAligned)
{
    // The benchmark kernels must be clean for MIPS-era hardware.
    for (const auto &w : cesp::workloads::allWorkloads()) {
        assembler::Program p = assembler::assembleOrDie(w.source);
        Emulator emu(p);
        emu.run(w.max_instructions);
        EXPECT_EQ(emu.unalignedAccesses(), 0u) << w.name;
    }
}
