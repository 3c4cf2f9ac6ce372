/**
 * @file
 * Functional emulator for PJ-RISC: architecturally executes a program
 * and optionally captures the dynamic instruction trace that drives
 * the timing simulator. This substitutes for the paper's use of
 * SimpleScalar's functional front end over SPEC'95 binaries.
 */

#ifndef CESP_FUNC_EMULATOR_HPP
#define CESP_FUNC_EMULATOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "func/memory.hpp"
#include "isa/decode.hpp"
#include "trace/trace.hpp"

namespace cesp::func {

/** Outcome of an emulation run. */
struct ExecResult
{
    uint64_t instructions = 0; //!< dynamic instructions executed
    bool halted = false;       //!< reached HALT (vs instruction limit)
    std::string console;       //!< bytes written via PUTC
    uint64_t faults = 0;       //!< div-by-zero etc. (result forced 0)
    uint64_t unaligned = 0;    //!< misaligned half/word accesses
};

/** Architectural machine state + executor. */
class Emulator
{
  public:
    explicit Emulator(const assembler::Program &program);

    /**
     * Execute up to @p max_instructions. If @p sink is non-null every
     * retired instruction is appended to it.
     */
    ExecResult run(uint64_t max_instructions,
                   trace::TraceSink *sink = nullptr);

    /** Execute a single instruction; false once halted. */
    bool step(trace::TraceSink *sink = nullptr);

    uint32_t pc() const { return pc_; }
    uint32_t intReg(int r) const { return regs_[r]; }
    float fpReg(int r) const { return fregs_[r]; }
    const Memory &memory() const { return mem_; }
    Memory &memory() { return mem_; }
    bool halted() const { return halted_; }
    const std::string &console() const { return console_; }
    uint64_t instructions() const { return icount_; }
    uint64_t faults() const { return faults_; }
    /** Misaligned half/word memory accesses (allowed, but counted). */
    uint64_t unalignedAccesses() const { return unaligned_; }

  private:
    /** Decode of @p raw fetched at @p pc, through decode_cache_. */
    const isa::Decoded &decodeAt(uint32_t pc, uint32_t raw);

    /**
     * A decoded instruction and the word it was decoded from. The
     * cache is indexed by pc and hit only when the fetched word still
     * equals @c raw, so a store over code (self-modifying code) is
     * decoded afresh, never served stale.
     */
    struct DecodeSlot
    {
        uint32_t raw;
        isa::Decoded d;
    };
    static constexpr uint32_t kDecodeSlots = 1024;

    Memory mem_;
    std::vector<DecodeSlot> decode_cache_;
    uint32_t regs_[isa::kNumIntRegs] = {};
    float fregs_[isa::kNumFpRegs] = {};
    uint32_t pc_;
    bool halted_ = false;
    std::string console_;
    uint64_t icount_ = 0;
    uint64_t faults_ = 0;
    uint64_t unaligned_ = 0;
};

/**
 * Convenience: assemble a source string, run it to completion (bounded
 * by @p max_instructions), and append the trace to @p sink if
 * non-null. Fatal on assembly errors.
 */
ExecResult runProgram(const std::string &source,
                      uint64_t max_instructions,
                      trace::TraceSink *sink = nullptr);

/** Instruction bound for the assembly programs the tools run. */
constexpr uint64_t kAsmInstructionLimit = 100000000ULL;

/**
 * The assembly source at @p path, once a sink-less run has proved it
 * halts within kAsmInstructionLimit instructions, so a runaway loop
 * never writes the bound's worth of records. Fatal when the file
 * cannot be read or the program does not halt.
 */
std::string loadHaltingProgram(const std::string &path);

} // namespace cesp::func

#endif // CESP_FUNC_EMULATOR_HPP
