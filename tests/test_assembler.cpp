/**
 * @file
 * Unit tests for the two-pass assembler: syntax, directives, pseudo-
 * instruction expansion, symbol resolution, branch offsets, and
 * error diagnostics.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hpp"
#include "isa/disasm.hpp"
#include "func/memory.hpp"
#include "isa/decode.hpp"

using namespace cesp;
using namespace cesp::assembler;
using cesp::isa::Opcode;

namespace {

/** Decode the n-th text instruction of a program. */
isa::Decoded
instAt(const Program &p, size_t n)
{
    func::Memory mem;
    mem.loadProgram(p);
    return isa::decode(
        mem.read32(kTextBase + static_cast<uint32_t>(n) * 4));
}

} // namespace

TEST(Assembler, MinimalProgram)
{
    auto r = assemble("main: halt\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.entry, kTextBase);
    EXPECT_EQ(r.program.segments.at(kTextBase).size(), 4u);
    EXPECT_EQ(instAt(r.program, 0).op, Opcode::HALT);
}

TEST(Assembler, EntryDefaultsToTextStartWithoutMain)
{
    auto r = assemble("start: nop\n halt\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.entry, kTextBase);
}

TEST(Assembler, CommentsAndBlankLines)
{
    auto r = assemble("# full comment\n\n  ; also comment\n"
                      "main: nop # trailing\n halt ; trailing\n");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.segments.at(kTextBase).size(), 8u);
}

TEST(Assembler, RTypeOperands)
{
    auto r = assemble("main: add t0, t1, t2\n halt\n");
    ASSERT_TRUE(r.ok) << r.error;
    isa::Decoded d = instAt(r.program, 0);
    EXPECT_EQ(d.op, Opcode::ADD);
    EXPECT_EQ(d.dst, 8);
    EXPECT_EQ(d.src1, 9);
    EXPECT_EQ(d.src2, 10);
}

TEST(Assembler, MemoryOperandForms)
{
    auto r = assemble(R"(
        .data
val:    .word 99
        .text
main:   lw  t0, 8(sp)
        lw  t1, (sp)
        sw  t0, -4(sp)
        halt
)");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(instAt(r.program, 0).imm, 8);
    EXPECT_EQ(instAt(r.program, 1).imm, 0);
    EXPECT_EQ(instAt(r.program, 2).imm, -4);
    EXPECT_EQ(r.program.segments.at(kTextBase).size(), 4 * 4u);
}

TEST(Assembler, BareSymbolMemOperandOutOfRangeIsError)
{
    // kDataBase (0x10000000) does not fit a signed 16-bit offset.
    auto r = assemble(R"(
        .data
big:    .word 1
        .text
main:   lw t0, big
        halt
)");
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("16-bit"), std::string::npos);
}

TEST(Assembler, BranchOffsetsForwardAndBackward)
{
    auto r = assemble(R"(
main:   beq t0, t1, fwd
loop:   addi t0, t0, 1
        bne t0, t1, loop
fwd:    halt
)");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(instAt(r.program, 0).imm, 2);  // to fwd: skip 2
    EXPECT_EQ(instAt(r.program, 2).imm, -2); // back to loop
}

TEST(Assembler, BranchOutOfRangeError)
{
    std::string src = "main: beq t0, t1, far\n";
    for (int i = 0; i < 40000; ++i)
        src += " nop\n";
    src += "far: halt\n";
    auto r = assemble(src);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("range"), std::string::npos);
}

TEST(Assembler, LiExpansions)
{
    auto r = assemble(R"(
main:   li t0, 5
        li t1, -5
        li t2, 0x8001
        li t3, 0x12345678
        halt
)");
    ASSERT_TRUE(r.ok) << r.error;
    // small positive -> addi; small negative -> addi;
    // 16-bit with high bit -> ori; full 32-bit -> lui+ori.
    EXPECT_EQ(instAt(r.program, 0).op, Opcode::ADDI);
    EXPECT_EQ(instAt(r.program, 1).op, Opcode::ADDI);
    EXPECT_EQ(instAt(r.program, 2).op, Opcode::ORI);
    EXPECT_EQ(instAt(r.program, 3).op, Opcode::LUI);
    EXPECT_EQ(instAt(r.program, 4).op, Opcode::ORI);
}

TEST(Assembler, LaAlwaysTwoInstructions)
{
    auto r = assemble(R"(
        .data
x:      .word 1
        .text
main:   la t0, x
        la t1, x+8
        halt
)");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(instAt(r.program, 0).op, Opcode::LUI);
    EXPECT_EQ(instAt(r.program, 1).op, Opcode::ORI);
    // x+8 resolves with offset.
    EXPECT_EQ(instAt(r.program, 3).imm,
              static_cast<int32_t>((kDataBase + 8) & 0xffff));
}

TEST(Assembler, PseudoBranches)
{
    auto r = assemble(R"(
main:   beqz t0, out
        bnez t0, out
        bgt  t0, t1, out
        ble  t0, t1, out
        bgtu t0, t1, out
        bleu t0, t1, out
out:    halt
)");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(instAt(r.program, 0).op, Opcode::BEQ);
    EXPECT_EQ(instAt(r.program, 1).op, Opcode::BNE);
    // bgt a,b -> blt b,a: sources swapped.
    isa::Decoded d = instAt(r.program, 2);
    EXPECT_EQ(d.op, Opcode::BLT);
    EXPECT_EQ(d.src1, 9);
    EXPECT_EQ(d.src2, 8);
    EXPECT_EQ(instAt(r.program, 3).op, Opcode::BGE);
    EXPECT_EQ(instAt(r.program, 4).op, Opcode::BLTU);
    EXPECT_EQ(instAt(r.program, 5).op, Opcode::BGEU);
}

TEST(Assembler, MoveNotNegSubi)
{
    auto r = assemble(R"(
main:   move t0, t1
        not  t2, t3
        neg  t4, t5
        subi t6, t7, 3
        halt
)");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(instAt(r.program, 0).op, Opcode::ADD);
    EXPECT_EQ(instAt(r.program, 0).src2, 0);
    EXPECT_EQ(instAt(r.program, 1).op, Opcode::NOR);
    EXPECT_EQ(instAt(r.program, 2).op, Opcode::SUB);
    EXPECT_EQ(instAt(r.program, 2).src1, 0);
    EXPECT_EQ(instAt(r.program, 3).op, Opcode::ADDI);
    EXPECT_EQ(instAt(r.program, 3).imm, -3);
}

TEST(Assembler, DataDirectives)
{
    auto r = assemble(R"(
        .data
w:      .word 1, 2, -1
h:      .half 0x1234
b:      .byte 7, 'a', '\n'
s:      .asciiz "hi\n"
        .align 4
q:      .word 5
        .space 12
e:      .word 9
        .text
main:   halt
)");
    ASSERT_TRUE(r.ok) << r.error;
    const auto &sym = r.program.symbols;
    EXPECT_EQ(sym.at("w"), kDataBase);
    EXPECT_EQ(sym.at("h"), kDataBase + 12);
    EXPECT_EQ(sym.at("b"), kDataBase + 14);
    EXPECT_EQ(sym.at("s"), kDataBase + 17);
    EXPECT_EQ(sym.at("q") % 4, 0u);
    EXPECT_EQ(sym.at("e"), sym.at("q") + 4 + 12);

    func::Memory mem;
    mem.loadProgram(r.program);
    EXPECT_EQ(mem.read32(sym.at("w") + 8), 0xffffffffu);
    EXPECT_EQ(mem.read16(sym.at("h")), 0x1234u);
    EXPECT_EQ(mem.read8(sym.at("b") + 1), 'a');
    EXPECT_EQ(mem.read8(sym.at("b") + 2), '\n');
    EXPECT_EQ(mem.read8(sym.at("s")), 'h');
    EXPECT_EQ(mem.read8(sym.at("s") + 2), '\n');
    EXPECT_EQ(mem.read8(sym.at("s") + 3), 0); // NUL
}

TEST(Assembler, WordWithSymbolValues)
{
    auto r = assemble(R"(
        .data
tbl:    .word one, two
        .text
main:   halt
one:    nop
two:    nop
)");
    ASSERT_TRUE(r.ok) << r.error;
    func::Memory mem;
    mem.loadProgram(r.program);
    EXPECT_EQ(mem.read32(kDataBase), r.program.symbols.at("one"));
    EXPECT_EQ(mem.read32(kDataBase + 4), r.program.symbols.at("two"));
}

TEST(Assembler, ErrorsCarryLineNumbers)
{
    auto r = assemble("main: nop\n bogus t0\n");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("line 2"), std::string::npos);
    EXPECT_NE(r.error.find("bogus"), std::string::npos);
}

TEST(Assembler, DuplicateLabelError)
{
    auto r = assemble("x: nop\nx: nop\n");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("duplicate"), std::string::npos);
}

TEST(Assembler, UndefinedSymbolError)
{
    auto r = assemble("main: j nowhere\n");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("undefined"), std::string::npos);
}

TEST(Assembler, BadRegisterError)
{
    auto r = assemble("main: add q0, t0, t1\n");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("register"), std::string::npos);
}

TEST(Assembler, ImmediateRangeErrors)
{
    EXPECT_FALSE(assemble("main: addi t0, t1, 40000\n").ok);
    EXPECT_FALSE(assemble("main: addi t0, t1, -40000\n").ok);
    EXPECT_TRUE(assemble("main: addi t0, t1, -32768\n halt\n").ok);
    EXPECT_FALSE(assemble("main: andi t0, t1, -1\n").ok); // unsigned
    EXPECT_TRUE(assemble("main: andi t0, t1, 65535\n halt\n").ok);
}

TEST(Assembler, InstructionInDataSectionError)
{
    auto r = assemble(".data\nmain: add t0, t1, t2\n");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find(".text"), std::string::npos);
}

TEST(Assembler, UnterminatedStringError)
{
    auto r = assemble(".data\ns: .asciiz \"oops\n");
    EXPECT_FALSE(r.ok);
}

TEST(Assembler, LabelOnlyLineBindsToNextAddress)
{
    auto r = assemble(R"(
main:   nop
here:
        halt
)");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.program.symbols.at("here"), kTextBase + 4);
}

TEST(Assembler, DisassemblerRoundTripForDataOps)
{
    // Every non-control instruction's disassembly reassembles to the
    // identical encoding (control ops print absolute targets, which
    // need labels to reassemble).
    using cesp::isa::Format;
    using cesp::isa::OpClass;
    for (int i = 0;
         i < static_cast<int>(cesp::isa::Opcode::NUM_OPCODES); ++i) {
        Opcode op = static_cast<Opcode>(i);
        const cesp::isa::OpInfo &info = cesp::isa::opInfo(op);
        if (cesp::isa::isControl(info.cls))
            continue;
        // Canonical encodings: unused register fields are zero, as
        // the assembler emits them.
        uint32_t raw;
        switch (op) {
          case Opcode::LUI:
            raw = cesp::isa::encodeI(op, 5, 0, 0x10);
            break;
          case Opcode::FMVI:
            raw = cesp::isa::encodeR(op, 5, 6, 0);
            break;
          case Opcode::PUTC:
            raw = cesp::isa::encodeR(op, 0, 6, 0);
            break;
          default:
            switch (info.format) {
              case Format::R:
                raw = cesp::isa::encodeR(op, 5, 6, 7);
                break;
              case Format::I:
                raw = cesp::isa::encodeI(op, 5, 6, 0x10);
                break;
              case Format::None:
                raw = cesp::isa::encodeNone(op);
                break;
              default:
                continue;
            }
        }
        std::string text = cesp::isa::disassemble(raw, 0x1000);
        auto r = assemble("main: " + text + "\n halt\n");
        ASSERT_TRUE(r.ok) << info.mnemonic << ": " << text << ": "
                          << r.error;
        func::Memory mem;
        mem.loadProgram(r.program);
        EXPECT_EQ(mem.read32(kTextBase), raw)
            << info.mnemonic << ": " << text;
    }
}

TEST(Assembler, ZeroBranchArityErrors)
{
    for (const char *src : {"main:\n  beqz\n", "main:\n  beqz t0\n",
                            "main:\n  bnez\n", "main:\n  bnez t0\n"}) {
        auto r = assemble(src);
        ASSERT_FALSE(r.ok) << src;
        EXPECT_NE(r.error.find("line 2"), std::string::npos) << r.error;
        EXPECT_NE(r.error.find("needs 2 operands"), std::string::npos)
            << r.error;
    }
}

TEST(AssemblerDeathTest, AssembleOrDieExitsOnError)
{
    EXPECT_EXIT(assembleOrDie("main: bogus\n"),
                ::testing::ExitedWithCode(1), "bogus");
}

TEST(Assembler, MoreDiagnostics)
{
    // Unbalanced memory operand.
    EXPECT_FALSE(assemble("main: lw t0, 4(sp\n").ok);
    // .align must be a power of two.
    auto r = assemble(".data\n .align 3\n");
    ASSERT_FALSE(r.ok);
    EXPECT_NE(r.error.find("power"), std::string::npos);
    // li rejects symbols (la is for addresses).
    auto r2 = assemble("x: nop\nmain: li t0, x\n");
    ASSERT_FALSE(r2.ok);
    EXPECT_NE(r2.error.find("la"), std::string::npos);
    // Missing operands.
    EXPECT_FALSE(assemble("main: add t0, t1\n").ok);
    EXPECT_FALSE(assemble("main: lw t0\n").ok);
    // jr with a bad register.
    EXPECT_FALSE(assemble("main: jr 42x\n").ok);
}

TEST(Assembler, SpaceSizeLimits)
{
    EXPECT_FALSE(assemble(".data\nb: .space -4\n").ok);
    EXPECT_TRUE(assemble(".data\nb: .space 0\n.text\nmain: halt\n").ok);
}
