/**
 * @file
 * Implementation of the sparse memory.
 */

#include "func/memory.hpp"

namespace cesp::func {

const Memory::Page *
Memory::findPage(uint32_t addr) const
{
    const Table *table = dir_[addr >> (kPageBits + kTableBits)].get();
    if (!table)
        return nullptr;
    return (*table)[(addr >> kPageBits) & ((1u << kTableBits) - 1)]
        .get();
}

Memory::Page &
Memory::touchPage(uint32_t addr)
{
    std::unique_ptr<Table> &table =
        dir_[addr >> (kPageBits + kTableBits)];
    if (!table)
        table = std::make_unique<Table>();
    std::unique_ptr<Page> &page =
        (*table)[(addr >> kPageBits) & ((1u << kTableBits) - 1)];
    if (!page) {
        page = std::make_unique<Page>(); // value-initialised: zeros
        ++resident_;
    }
    return *page;
}

uint8_t
Memory::read8(uint32_t addr) const
{
    const Page *p = findPage(addr);
    return p ? (*p)[addr & (kPageSize - 1)] : 0;
}

uint16_t
Memory::read16(uint32_t addr) const
{
    return static_cast<uint16_t>(read8(addr)) |
        static_cast<uint16_t>(static_cast<uint16_t>(read8(addr + 1))
                              << 8);
}

uint32_t
Memory::read32(uint32_t addr) const
{
    // Fast path for the common aligned in-page case.
    if ((addr & 3) == 0) {
        const Page *p = findPage(addr);
        if (!p)
            return 0;
        uint32_t off = addr & (kPageSize - 1);
        return static_cast<uint32_t>((*p)[off]) |
            (static_cast<uint32_t>((*p)[off + 1]) << 8) |
            (static_cast<uint32_t>((*p)[off + 2]) << 16) |
            (static_cast<uint32_t>((*p)[off + 3]) << 24);
    }
    return static_cast<uint32_t>(read16(addr)) |
        (static_cast<uint32_t>(read16(addr + 2)) << 16);
}

void
Memory::write8(uint32_t addr, uint8_t v)
{
    touchPage(addr)[addr & (kPageSize - 1)] = v;
}

void
Memory::write16(uint32_t addr, uint16_t v)
{
    write8(addr, static_cast<uint8_t>(v));
    write8(addr + 1, static_cast<uint8_t>(v >> 8));
}

void
Memory::write32(uint32_t addr, uint32_t v)
{
    if ((addr & 3) == 0) {
        Page &p = touchPage(addr);
        uint32_t off = addr & (kPageSize - 1);
        p[off] = static_cast<uint8_t>(v);
        p[off + 1] = static_cast<uint8_t>(v >> 8);
        p[off + 2] = static_cast<uint8_t>(v >> 16);
        p[off + 3] = static_cast<uint8_t>(v >> 24);
        return;
    }
    write16(addr, static_cast<uint16_t>(v));
    write16(addr + 2, static_cast<uint16_t>(v >> 16));
}

void
Memory::loadProgram(const assembler::Program &p)
{
    for (const auto &[base, bytes] : p.segments)
        for (size_t i = 0; i < bytes.size(); ++i)
            write8(base + static_cast<uint32_t>(i), bytes[i]);
}

} // namespace cesp::func
