/**
 * @file
 * Instruction decoder: raw 32-bit word -> operand-level description
 * (opcode, class, source/destination flat register numbers, immediate,
 * jump target). Both the functional emulator and the trace capture use
 * the same decode, so the timing simulator sees exactly the operands
 * the emulator used.
 */

#ifndef CESP_ISA_DECODE_HPP
#define CESP_ISA_DECODE_HPP

#include <cstdint>

#include "isa/isa.hpp"

namespace cesp::isa {

/** Fully decoded instruction. */
struct Decoded
{
    Opcode op = Opcode::NOP;
    OpClass cls = OpClass::Nop;
    Format format = Format::None;
    int dst = kNoReg;   //!< flat destination register (kNoReg if none)
    int src1 = kNoReg;  //!< flat first source (kNoReg if none)
    int src2 = kNoReg;  //!< flat second source (kNoReg if none)
    int32_t imm = 0;    //!< sign/zero-extended immediate (I-type)
    uint32_t jtarget = 0; //!< absolute byte target (J-type, low 28 bits)

    bool hasDst() const { return dst != kNoReg && dst != 0; }
};

/**
 * Decode a raw instruction word.
 *
 * Destinations that are the integer zero register are reported as
 * written (dst = 0) so the emulator can discard the result uniformly;
 * the timing simulator treats dst 0 as no destination.
 */
Decoded decode(uint32_t raw);

} // namespace cesp::isa

#endif // CESP_ISA_DECODE_HPP
