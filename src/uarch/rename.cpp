/**
 * @file
 * Implementation of the rename state.
 */

#include "uarch/rename.hpp"

#include "common/logging.hpp"

namespace cesp::uarch {

RenameState::RenameState(const SimConfig &cfg)
    : phys_int_(cfg.phys_int_regs)
{
    pregs_.assign(
        static_cast<size_t>(cfg.phys_int_regs + cfg.phys_fp_regs),
        PhysReg{});
    map_.assign(isa::kNumArchRegs, -1);
    free_int_.reserve(static_cast<size_t>(cfg.phys_int_regs));
    free_fp_.reserve(static_cast<size_t>(cfg.phys_fp_regs));

    // Architectural integer register i starts mapped to physical i;
    // fp register i to physical phys_int_ + i. The remainder of each
    // class seeds the free lists.
    for (int i = 0; i < isa::kNumIntRegs; ++i)
        map_[i] = i;
    for (int i = 0; i < isa::kNumFpRegs; ++i)
        map_[isa::kFpRegBase + i] = phys_int_ + i;
    for (int p = isa::kNumIntRegs; p < cfg.phys_int_regs; ++p)
        free_int_.push_back(p);
    for (int p = isa::kNumFpRegs; p < cfg.phys_fp_regs; ++p)
        free_fp_.push_back(phys_int_ + p);
}

bool
RenameState::hasFreeFor(int arch_dst) const
{
    return arch_dst >= isa::kFpRegBase ? !free_fp_.empty()
                                       : !free_int_.empty();
}

RenameState::Renamed
RenameState::rename(int arch_dst, uint64_t seq)
{
    if (arch_dst <= 0 || arch_dst >= isa::kNumArchRegs)
        panic("rename: bad destination register %d", arch_dst);
    auto &pool =
        arch_dst >= isa::kFpRegBase ? free_fp_ : free_int_;
    if (pool.empty())
        panic("rename: no free register (caller must check)");
    int p = pool.front();
    pool.pop_front();

    // first_waiter needs no reset: the pipeline empties the list when
    // the producer issues, long before the register is released.
    PhysReg &pr = pregs_[static_cast<size_t>(p)];
    pr.computed_cycle = kNeverCycle;
    pr.producer_seq = seq;
    pr.producing_cluster = 0;
    pr.scheduled = false;
    for (int c = 0; c < kMaxClusters; ++c)
        pr.ready_cycle[c] = kNeverCycle;

    int old = map_[arch_dst];
    map_[arch_dst] = p;
    return {p, old};
}

void
RenameState::release(int preg)
{
    if (preg < 0 || preg >= numPregs())
        panic("release: bad physical register %d", preg);
    if (isFpPreg(preg))
        free_fp_.push_back(preg);
    else
        free_int_.push_back(preg);
}

} // namespace cesp::uarch
