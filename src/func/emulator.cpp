/**
 * @file
 * Implementation of the functional emulator.
 */

#include "func/emulator.hpp"

#include <bit>
#include <cstring>

#include "asm/assembler.hpp"
#include "common/logging.hpp"
#include "isa/decode.hpp"

namespace cesp::func {

using isa::Opcode;
using isa::OpClass;

Emulator::Emulator(const assembler::Program &program)
    // Every slot starts as the (correct) decode of word 0.
    : decode_cache_(kDecodeSlots, DecodeSlot{0, isa::decode(0)}),
      pc_(program.entry)
{
    mem_.loadProgram(program);
    regs_[29] = assembler::kStackTop; // sp
    regs_[31] = 0;                    // ra: returning to 0 is an error
}

void
Emulator::setIntReg(int r, uint32_t v)
{
    if (r < 0 || r >= isa::kNumIntRegs)
        panic("setIntReg: bad register %d", r);
    if (r != 0)
        regs_[r] = v;
}

const isa::Decoded &
Emulator::decodeAt(uint32_t pc, uint32_t raw)
{
    DecodeSlot &slot = decode_cache_[(pc >> 2) & (kDecodeSlots - 1)];
    if (slot.raw != raw) {
        slot.raw = raw;
        slot.d = isa::decode(raw);
    }
    return slot.d;
}

bool
Emulator::step(trace::TraceSink *sink)
{
    if (halted_)
        return false;

    const isa::Decoded d = decodeAt(pc_, mem_.read32(pc_));

    trace::TraceOp t;
    t.pc = pc_;
    t.op = d.op;
    t.cls = d.cls;
    t.dst = static_cast<int8_t>(d.dst);
    t.src1 = static_cast<int8_t>(d.src1);
    t.src2 = static_cast<int8_t>(d.src2);

    uint32_t next = pc_ + 4;

    auto ir = [&](int reg) { return regs_[reg]; };
    auto fr = [&](int flat) { return fregs_[flat - isa::kFpRegBase]; };
    auto set_i = [&](uint32_t v) {
        if (d.dst > 0 && d.dst < isa::kNumIntRegs)
            regs_[d.dst] = v;
    };
    auto set_f = [&](float v) {
        fregs_[d.dst - isa::kFpRegBase] = v;
    };
    auto branch = [&](bool cond) {
        t.taken = cond;
        if (cond)
            next = pc_ + 4 + static_cast<uint32_t>(d.imm) * 4;
    };
    auto ea = [&] {
        uint32_t a = ir(d.src1) + static_cast<uint32_t>(d.imm);
        t.mem_addr = a;
        // PJ-RISC permits unaligned accesses but real MIPS-era
        // hardware traps; count them so tests can flag kernels that
        // would not have run on the paper's machines.
        uint32_t size = 0;
        switch (d.op) {
          case Opcode::LW: case Opcode::SW: case Opcode::FLW:
          case Opcode::FSW:
            size = 4;
            break;
          case Opcode::LH: case Opcode::LHU: case Opcode::SH:
            size = 2;
            break;
          default:
            break;
        }
        if (size > 1 && (a & (size - 1)))
            ++unaligned_;
        return a;
    };

    switch (d.op) {
      case Opcode::ADD: set_i(ir(d.src1) + ir(d.src2)); break;
      case Opcode::SUB: set_i(ir(d.src1) - ir(d.src2)); break;
      case Opcode::AND: set_i(ir(d.src1) & ir(d.src2)); break;
      case Opcode::OR: set_i(ir(d.src1) | ir(d.src2)); break;
      case Opcode::XOR: set_i(ir(d.src1) ^ ir(d.src2)); break;
      case Opcode::NOR: set_i(~(ir(d.src1) | ir(d.src2))); break;
      case Opcode::SLT:
        set_i(static_cast<int32_t>(ir(d.src1)) <
              static_cast<int32_t>(ir(d.src2)) ? 1 : 0);
        break;
      case Opcode::SLTU:
        set_i(ir(d.src1) < ir(d.src2) ? 1 : 0);
        break;
      case Opcode::SLLV: set_i(ir(d.src1) << (ir(d.src2) & 31)); break;
      case Opcode::SRLV: set_i(ir(d.src1) >> (ir(d.src2) & 31)); break;
      case Opcode::SRAV:
        set_i(static_cast<uint32_t>(
            static_cast<int32_t>(ir(d.src1)) >> (ir(d.src2) & 31)));
        break;
      case Opcode::MUL:
        set_i(static_cast<uint32_t>(
            static_cast<int64_t>(static_cast<int32_t>(ir(d.src1))) *
            static_cast<int32_t>(ir(d.src2))));
        break;
      case Opcode::MULH:
        set_i(static_cast<uint32_t>(
            (static_cast<int64_t>(static_cast<int32_t>(ir(d.src1))) *
             static_cast<int32_t>(ir(d.src2))) >> 32));
        break;
      case Opcode::DIV: {
        int32_t a = static_cast<int32_t>(ir(d.src1));
        int32_t b = static_cast<int32_t>(ir(d.src2));
        if (b == 0 || (a == INT32_MIN && b == -1)) {
            ++faults_;
            set_i(0);
        } else {
            set_i(static_cast<uint32_t>(a / b));
        }
        break;
      }
      case Opcode::REM: {
        int32_t a = static_cast<int32_t>(ir(d.src1));
        int32_t b = static_cast<int32_t>(ir(d.src2));
        if (b == 0 || (a == INT32_MIN && b == -1)) {
            ++faults_;
            set_i(0);
        } else {
            set_i(static_cast<uint32_t>(a % b));
        }
        break;
      }
      case Opcode::ADDI:
        set_i(ir(d.src1) + static_cast<uint32_t>(d.imm));
        break;
      case Opcode::ANDI:
        set_i(ir(d.src1) & static_cast<uint32_t>(d.imm));
        break;
      case Opcode::ORI:
        set_i(ir(d.src1) | static_cast<uint32_t>(d.imm));
        break;
      case Opcode::XORI:
        set_i(ir(d.src1) ^ static_cast<uint32_t>(d.imm));
        break;
      case Opcode::SLTI:
        set_i(static_cast<int32_t>(ir(d.src1)) < d.imm ? 1 : 0);
        break;
      case Opcode::SLTIU:
        set_i(ir(d.src1) < static_cast<uint32_t>(d.imm) ? 1 : 0);
        break;
      case Opcode::LUI:
        set_i(static_cast<uint32_t>(d.imm) << 16);
        break;
      case Opcode::SLLI: set_i(ir(d.src1) << (d.imm & 31)); break;
      case Opcode::SRLI: set_i(ir(d.src1) >> (d.imm & 31)); break;
      case Opcode::SRAI:
        set_i(static_cast<uint32_t>(
            static_cast<int32_t>(ir(d.src1)) >> (d.imm & 31)));
        break;
      case Opcode::LW:
        t.mem_size = 4;
        set_i(mem_.read32(ea()));
        break;
      case Opcode::LH:
        t.mem_size = 2;
        set_i(static_cast<uint32_t>(static_cast<int32_t>(
            static_cast<int16_t>(mem_.read16(ea())))));
        break;
      case Opcode::LHU:
        t.mem_size = 2;
        set_i(mem_.read16(ea()));
        break;
      case Opcode::LB:
        t.mem_size = 1;
        set_i(static_cast<uint32_t>(static_cast<int32_t>(
            static_cast<int8_t>(mem_.read8(ea())))));
        break;
      case Opcode::LBU:
        t.mem_size = 1;
        set_i(mem_.read8(ea()));
        break;
      case Opcode::SW:
        t.mem_size = 4;
        mem_.write32(ea(), ir(d.src2));
        break;
      case Opcode::SH:
        t.mem_size = 2;
        mem_.write16(ea(), static_cast<uint16_t>(ir(d.src2)));
        break;
      case Opcode::SB:
        t.mem_size = 1;
        mem_.write8(ea(), static_cast<uint8_t>(ir(d.src2)));
        break;
      case Opcode::BEQ: branch(ir(d.src1) == ir(d.src2)); break;
      case Opcode::BNE: branch(ir(d.src1) != ir(d.src2)); break;
      case Opcode::BLT:
        branch(static_cast<int32_t>(ir(d.src1)) <
               static_cast<int32_t>(ir(d.src2)));
        break;
      case Opcode::BGE:
        branch(static_cast<int32_t>(ir(d.src1)) >=
               static_cast<int32_t>(ir(d.src2)));
        break;
      case Opcode::BLTU: branch(ir(d.src1) < ir(d.src2)); break;
      case Opcode::BGEU: branch(ir(d.src1) >= ir(d.src2)); break;
      case Opcode::J:
        t.taken = true;
        next = (pc_ & 0xf0000000u) | d.jtarget;
        break;
      case Opcode::JAL:
        t.taken = true;
        regs_[31] = pc_ + 4;
        next = (pc_ & 0xf0000000u) | d.jtarget;
        break;
      case Opcode::JR:
        t.taken = true;
        next = ir(d.src1);
        break;
      case Opcode::JALR:
        t.taken = true;
        next = ir(d.src1);
        set_i(pc_ + 4);
        break;
      case Opcode::FADD: set_f(fr(d.src1) + fr(d.src2)); break;
      case Opcode::FSUB: set_f(fr(d.src1) - fr(d.src2)); break;
      case Opcode::FMUL: set_f(fr(d.src1) * fr(d.src2)); break;
      case Opcode::FDIV: set_f(fr(d.src1) / fr(d.src2)); break;
      case Opcode::FLW: {
        t.mem_size = 4;
        uint32_t bits = mem_.read32(ea());
        set_f(std::bit_cast<float>(bits));
        break;
      }
      case Opcode::FSW: {
        t.mem_size = 4;
        float v = fr(d.src2);
        mem_.write32(ea(), std::bit_cast<uint32_t>(v));
        break;
      }
      case Opcode::FMVI:
        set_f(std::bit_cast<float>(ir(d.src1)));
        break;
      case Opcode::FCMPLT:
        set_i(fr(d.src1) < fr(d.src2) ? 1 : 0);
        break;
      case Opcode::PUTC:
        console_ += static_cast<char>(ir(d.src1) & 0xff);
        break;
      case Opcode::NOP:
        break;
      case Opcode::HALT:
        halted_ = true;
        break;
      case Opcode::NUM_OPCODES:
        break;
    }

    regs_[0] = 0;
    pc_ = next;
    ++icount_;
    if (sink)
        sink->append(t);
    return !halted_;
}

ExecResult
Emulator::run(uint64_t max_instructions, trace::TraceSink *sink)
{
    uint64_t start = icount_;
    while (!halted_ && icount_ - start < max_instructions)
        step(sink);
    ExecResult r;
    r.instructions = icount_ - start;
    r.halted = halted_;
    r.console = console_;
    r.faults = faults_;
    r.unaligned = unaligned_;
    return r;
}

ExecResult
runProgram(const std::string &source, uint64_t max_instructions,
           trace::TraceSink *sink)
{
    assembler::Program p = assembler::assembleOrDie(source);
    Emulator emu(p);
    return emu.run(max_instructions, sink);
}

} // namespace cesp::func
