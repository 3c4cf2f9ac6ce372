/**
 * @file
 * Implementation of the instruction decoder.
 */

#include "isa/decode.hpp"

namespace cesp::isa {

namespace {

int
fpReg(uint32_t field)
{
    return kFpRegBase + static_cast<int>(field);
}

} // namespace

Decoded
decode(uint32_t raw)
{
    Decoded d;
    uint32_t opfield = raw >> 26;
    if (opfield >= static_cast<uint32_t>(Opcode::NUM_OPCODES)) {
        // Treat garbage as NOP; the emulator separately faults on
        // fetching from unmapped memory, so this only matters for
        // deliberately-malformed inputs.
        return d;
    }
    d.op = static_cast<Opcode>(opfield);
    const OpInfo &info = opInfo(d.op);
    d.cls = info.cls;
    d.format = info.format;

    int rs = static_cast<int>((raw >> 21) & 31);
    int rt = static_cast<int>((raw >> 16) & 31);
    int rd = static_cast<int>((raw >> 11) & 31);
    uint16_t imm16 = static_cast<uint16_t>(raw & 0xffff);
    d.imm = info.imm_signed ? static_cast<int32_t>(
                static_cast<int16_t>(imm16))
                            : static_cast<int32_t>(imm16);
    d.jtarget = (raw & 0x03ffffffu) << 2;

    switch (d.op) {
      // R-type integer: rd <- rs OP rt
      case Opcode::ADD: case Opcode::SUB: case Opcode::AND:
      case Opcode::OR: case Opcode::XOR: case Opcode::NOR:
      case Opcode::SLT: case Opcode::SLTU: case Opcode::SLLV:
      case Opcode::SRLV: case Opcode::SRAV: case Opcode::MUL:
      case Opcode::MULH: case Opcode::DIV: case Opcode::REM:
        d.dst = rd;
        d.src1 = rs;
        d.src2 = rt;
        break;
      // I-type integer: rt <- rs OP imm
      case Opcode::ADDI: case Opcode::ANDI: case Opcode::ORI:
      case Opcode::XORI: case Opcode::SLTI: case Opcode::SLTIU:
      case Opcode::SLLI: case Opcode::SRLI: case Opcode::SRAI:
        d.dst = rt;
        d.src1 = rs;
        break;
      case Opcode::LUI:
        d.dst = rt;
        break;
      // Loads: rt <- mem[rs + imm]
      case Opcode::LW: case Opcode::LH: case Opcode::LHU:
      case Opcode::LB: case Opcode::LBU:
        d.dst = rt;
        d.src1 = rs;
        break;
      case Opcode::FLW:
        d.dst = fpReg(static_cast<uint32_t>(rt));
        d.src1 = rs;
        break;
      // Stores: mem[rs + imm] <- rt
      case Opcode::SW: case Opcode::SH: case Opcode::SB:
        d.src1 = rs;
        d.src2 = rt;
        break;
      case Opcode::FSW:
        d.src1 = rs;
        d.src2 = fpReg(static_cast<uint32_t>(rt));
        break;
      // Branches: compare rs, rt
      case Opcode::BEQ: case Opcode::BNE: case Opcode::BLT:
      case Opcode::BGE: case Opcode::BLTU: case Opcode::BGEU:
        d.src1 = rs;
        d.src2 = rt;
        break;
      case Opcode::J:
        break;
      case Opcode::JAL:
        d.dst = 31; // link register
        break;
      case Opcode::JR:
        d.src1 = rs;
        break;
      case Opcode::JALR:
        d.dst = rd;
        d.src1 = rs;
        break;
      // FP R-type: fd <- fs OP ft
      case Opcode::FADD: case Opcode::FSUB: case Opcode::FMUL:
      case Opcode::FDIV:
        d.dst = fpReg(static_cast<uint32_t>(rd));
        d.src1 = fpReg(static_cast<uint32_t>(rs));
        d.src2 = fpReg(static_cast<uint32_t>(rt));
        break;
      case Opcode::FMVI:
        d.dst = fpReg(static_cast<uint32_t>(rd));
        d.src1 = rs;
        break;
      case Opcode::FCMPLT:
        d.dst = rd;
        d.src1 = fpReg(static_cast<uint32_t>(rs));
        d.src2 = fpReg(static_cast<uint32_t>(rt));
        break;
      case Opcode::PUTC:
        d.src1 = rs;
        break;
      case Opcode::NOP: case Opcode::HALT:
        break;
      case Opcode::NUM_OPCODES:
        break;
    }
    return d;
}

} // namespace cesp::isa
