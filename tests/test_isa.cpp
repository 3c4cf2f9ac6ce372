/**
 * @file
 * Unit tests for the PJ-RISC ISA: opcode metadata, register naming,
 * encode/decode round trips for every opcode, and the disassembler.
 */

#include <gtest/gtest.h>

#include "isa/decode.hpp"
#include "isa/disasm.hpp"
#include "isa/isa.hpp"

using namespace cesp::isa;

TEST(OpInfo, TableIsCompleteAndOrdered)
{
    for (int i = 0; i < static_cast<int>(Opcode::NUM_OPCODES); ++i) {
        const OpInfo &info = opInfo(static_cast<Opcode>(i));
        EXPECT_EQ(static_cast<int>(info.op), i);
        EXPECT_NE(info.mnemonic, nullptr);
    }
}

TEST(OpInfo, MnemonicLookupRoundTrips)
{
    for (int i = 0; i < static_cast<int>(Opcode::NUM_OPCODES); ++i) {
        Opcode op = static_cast<Opcode>(i);
        Opcode found;
        ASSERT_TRUE(opcodeFromMnemonic(opInfo(op).mnemonic, found));
        EXPECT_EQ(found, op);
    }
    Opcode dummy;
    EXPECT_FALSE(opcodeFromMnemonic("bogus", dummy));
}

TEST(OpClassPredicates, ControlAndMem)
{
    EXPECT_TRUE(isControl(OpClass::BranchCond));
    EXPECT_TRUE(isControl(OpClass::BranchUncond));
    EXPECT_TRUE(isControl(OpClass::BranchInd));
    EXPECT_FALSE(isControl(OpClass::IntAlu));
    EXPECT_TRUE(isMem(OpClass::Load));
    EXPECT_TRUE(isMem(OpClass::Store));
    EXPECT_FALSE(isMem(OpClass::BranchCond));
}

TEST(Registers, NamesAndAliases)
{
    EXPECT_STREQ(intRegName(0), "zero");
    EXPECT_STREQ(intRegName(29), "sp");
    EXPECT_STREQ(intRegName(31), "ra");
    EXPECT_EQ(parseRegister("zero"), 0);
    EXPECT_EQ(parseRegister("r7"), 7);
    EXPECT_EQ(parseRegister("$7"), 7);
    EXPECT_EQ(parseRegister("t0"), 8);
    EXPECT_EQ(parseRegister("s0"), 16);
    EXPECT_EQ(parseRegister("a3"), 7);
    EXPECT_EQ(parseRegister("f5"), kFpRegBase + 5);
    EXPECT_EQ(parseRegister("nope"), kNoReg);
    EXPECT_EQ(regName(0), "zero");
    EXPECT_EQ(regName(kFpRegBase + 3), "f3");
}

// Encode/decode round trips for every R-type ALU opcode.
class RTypeRoundTrip : public ::testing::TestWithParam<Opcode>
{
};

TEST_P(RTypeRoundTrip, FieldsSurvive)
{
    Opcode op = GetParam();
    uint32_t raw = encodeR(op, 5, 6, 7);
    Decoded d = decode(raw);
    EXPECT_EQ(d.op, op);
    EXPECT_EQ(d.dst, 5);
    EXPECT_EQ(d.src1, 6);
    EXPECT_EQ(d.src2, 7);
    EXPECT_EQ(d.cls, opInfo(op).cls);
}

INSTANTIATE_TEST_SUITE_P(
    IntAluOps, RTypeRoundTrip,
    ::testing::Values(Opcode::ADD, Opcode::SUB, Opcode::AND,
                      Opcode::OR, Opcode::XOR, Opcode::NOR,
                      Opcode::SLT, Opcode::SLTU, Opcode::SLLV,
                      Opcode::SRLV, Opcode::SRAV, Opcode::MUL,
                      Opcode::MULH, Opcode::DIV, Opcode::REM));

class ITypeAluRoundTrip : public ::testing::TestWithParam<Opcode>
{
};

TEST_P(ITypeAluRoundTrip, FieldsSurvive)
{
    Opcode op = GetParam();
    uint32_t raw = encodeI(op, 9, 10, 0x1234);
    Decoded d = decode(raw);
    EXPECT_EQ(d.op, op);
    EXPECT_EQ(d.dst, 9);
    EXPECT_EQ(d.src1, 10);
    EXPECT_EQ(d.imm, 0x1234);
}

INSTANTIATE_TEST_SUITE_P(
    ImmOps, ITypeAluRoundTrip,
    ::testing::Values(Opcode::ADDI, Opcode::ANDI, Opcode::ORI,
                      Opcode::XORI, Opcode::SLTI, Opcode::SLTIU,
                      Opcode::SLLI, Opcode::SRLI, Opcode::SRAI));

TEST(Decode, SignExtensionRespectsOpcode)
{
    // ADDI sign-extends; ORI zero-extends.
    Decoded d1 = decode(encodeI(Opcode::ADDI, 1, 2, 0xffff));
    EXPECT_EQ(d1.imm, -1);
    Decoded d2 = decode(encodeI(Opcode::ORI, 1, 2, 0xffff));
    EXPECT_EQ(d2.imm, 0xffff);
}

TEST(Decode, Loads)
{
    Decoded d = decode(encodeI(Opcode::LW, 4, 29, 0xfff8));
    EXPECT_EQ(d.cls, OpClass::Load);
    EXPECT_EQ(d.dst, 4);
    EXPECT_EQ(d.src1, 29);
    EXPECT_EQ(d.imm, -8);
}

TEST(Decode, StoresHaveNoDest)
{
    Decoded d = decode(encodeI(Opcode::SW, 4, 29, 12));
    EXPECT_EQ(d.cls, OpClass::Store);
    EXPECT_EQ(d.dst, kNoReg);
    EXPECT_EQ(d.src1, 29); // base
    EXPECT_EQ(d.src2, 4);  // data
}

TEST(Decode, Branches)
{
    Decoded d = decode(encodeI(Opcode::BNE, 3, 2, 0xfffe));
    EXPECT_EQ(d.cls, OpClass::BranchCond);
    EXPECT_EQ(d.src1, 2);
    EXPECT_EQ(d.src2, 3);
    EXPECT_EQ(d.imm, -2);
    EXPECT_EQ(d.dst, kNoReg);
}

TEST(Decode, JumpsAndLinks)
{
    Decoded j = decode(encodeJ(Opcode::J, 0x4000));
    EXPECT_EQ(j.cls, OpClass::BranchUncond);
    EXPECT_EQ(j.jtarget, 0x4000u);
    EXPECT_EQ(j.dst, kNoReg);

    Decoded jal = decode(encodeJ(Opcode::JAL, 0x4000));
    EXPECT_EQ(jal.dst, 31);

    Decoded jr = decode(encodeR(Opcode::JR, 0, 31, 0));
    EXPECT_EQ(jr.cls, OpClass::BranchInd);
    EXPECT_EQ(jr.src1, 31);
    EXPECT_EQ(jr.dst, kNoReg);

    Decoded jalr = decode(encodeR(Opcode::JALR, 31, 8, 0));
    EXPECT_EQ(jalr.dst, 31);
    EXPECT_EQ(jalr.src1, 8);
}

TEST(Decode, FpOperandsUseFlatNumbering)
{
    Decoded d = decode(encodeR(Opcode::FADD, kFpRegBase + 1,
                               kFpRegBase + 2, kFpRegBase + 3));
    EXPECT_EQ(d.dst, kFpRegBase + 1);
    EXPECT_EQ(d.src1, kFpRegBase + 2);
    EXPECT_EQ(d.src2, kFpRegBase + 3);

    Decoded flw = decode(encodeI(Opcode::FLW, kFpRegBase + 4, 29, 8));
    EXPECT_EQ(flw.dst, kFpRegBase + 4);
    EXPECT_EQ(flw.src1, 29);

    Decoded fsw = decode(encodeI(Opcode::FSW, kFpRegBase + 4, 29, 8));
    EXPECT_EQ(fsw.src2, kFpRegBase + 4);
    EXPECT_EQ(fsw.src1, 29);
}

TEST(Decode, LuiHasNoSource)
{
    Decoded d = decode(encodeI(Opcode::LUI, 5, 0, 0x1000));
    EXPECT_EQ(d.dst, 5);
    EXPECT_EQ(d.src1, kNoReg);
}

TEST(Decode, InvalidOpcodeIsNop)
{
    uint32_t raw = 0xfc000000u; // opcode field 63
    Decoded d = decode(raw);
    EXPECT_EQ(d.op, Opcode::NOP);
}

TEST(Decode, HasDstIgnoresZeroRegister)
{
    Decoded d = decode(encodeR(Opcode::ADD, 0, 1, 2));
    EXPECT_FALSE(d.hasDst());
    Decoded d2 = decode(encodeR(Opcode::ADD, 3, 1, 2));
    EXPECT_TRUE(d2.hasDst());
}

TEST(Disasm, RendersRepresentativeForms)
{
    EXPECT_EQ(disassemble(encodeR(Opcode::ADD, 2, 4, 5), 0),
              "add v0, a0, a1");
    EXPECT_EQ(disassemble(encodeI(Opcode::LW, 8, 29, 8), 0),
              "lw t0, 8(sp)");
    EXPECT_EQ(disassemble(encodeI(Opcode::SW, 8, 29, 8), 0),
              "sw t0, 8(sp)");
    EXPECT_EQ(disassemble(encodeNone(Opcode::HALT), 0), "halt");
    EXPECT_EQ(disassemble(encodeR(Opcode::JR, 0, 31, 0), 0), "jr ra");
    // Branch target resolves relative to pc.
    std::string b =
        disassemble(encodeI(Opcode::BEQ, 9, 8, 0xffff), 0x1000);
    EXPECT_EQ(b, "beq t0, t1, 0x1000");
}
