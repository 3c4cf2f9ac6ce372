/**
 * @file
 * Sparse paged memory for the functional emulator. Pages are allocated
 * on first write; reads of unmapped memory return zero (BSS-like
 * semantics), so workloads do not need to reserve every byte they
 * touch. Little-endian, 32-bit address space.
 */

#ifndef CESP_FUNC_MEMORY_HPP
#define CESP_FUNC_MEMORY_HPP

#include <array>
#include <cstdint>
#include <memory>

#include "asm/program.hpp"

namespace cesp::func {

/**
 * Sparse 32-bit byte-addressable memory behind a two-level page table:
 * the top kDirBits of an address pick a directory slot, the next
 * kTableBits a page within that slot's table. Every access is two
 * dependent loads, whatever page instruction fetch or the previous
 * data access touched.
 */
class Memory
{
  public:
    static constexpr uint32_t kPageBits = 12;
    static constexpr uint32_t kPageSize = 1u << kPageBits;

    uint8_t read8(uint32_t addr) const;
    uint16_t read16(uint32_t addr) const;
    uint32_t read32(uint32_t addr) const;

    void write8(uint32_t addr, uint8_t v);
    void write16(uint32_t addr, uint16_t v);
    void write32(uint32_t addr, uint32_t v);

    /** Copy a program image's segments into memory. */
    void loadProgram(const assembler::Program &p);

    /** Number of resident pages (for tests / stats). */
    size_t residentPages() const { return resident_; }

  private:
    static constexpr uint32_t kTableBits = 10;
    static constexpr uint32_t kDirBits = 32 - kPageBits - kTableBits;

    using Page = std::array<uint8_t, kPageSize>;
    using Table = std::array<std::unique_ptr<Page>, 1u << kTableBits>;

    const Page *findPage(uint32_t addr) const;
    Page &touchPage(uint32_t addr);

    std::array<std::unique_ptr<Table>, 1u << kDirBits> dir_;
    size_t resident_ = 0;
};

} // namespace cesp::func

#endif // CESP_FUNC_MEMORY_HPP
