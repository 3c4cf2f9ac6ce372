/**
 * @file
 * Loadable program image produced by the assembler and consumed by
 * the functional emulator: byte segments at fixed base addresses, an
 * entry point, and the resolved symbol table.
 */

#ifndef CESP_ASM_PROGRAM_HPP
#define CESP_ASM_PROGRAM_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cesp::assembler {

/** Default section base addresses (MIPS-like memory map). */
constexpr uint32_t kTextBase = 0x00010000;
constexpr uint32_t kDataBase = 0x10000000;
constexpr uint32_t kStackTop = 0x7ffffff0;

/** A loadable program image. */
struct Program
{
    /** Entry pc (address of the "main" label, else start of .text). */
    uint32_t entry = kTextBase;

    /** Segment base address -> raw bytes. */
    std::map<uint32_t, std::vector<uint8_t>> segments;

    /** Resolved label addresses. */
    std::map<std::string, uint32_t> symbols;
};

} // namespace cesp::assembler

#endif // CESP_ASM_PROGRAM_HPP
