/**
 * @file
 * Register rename state: architectural-to-physical map table, per-
 * class free lists, and per-physical-register scheduling state. This
 * is the timing-side counterpart of the rename logic modeled in
 * Section 4.1 of the paper (the RAM scheme): the map table is indexed
 * by architectural register, a free physical register is allocated
 * per destination, and the previous mapping is released when the
 * renaming instruction commits.
 *
 * Each physical register also carries the cross-cluster result timing
 * used by the issue logic: the cycle at which a consumer in each
 * cluster may issue using the value (1-cycle local bypass, +1 cycle
 * per Section 5.4 for the other cluster) and the cycle at which the
 * value is readable from each cluster's register file (used to tell
 * bypassed operands from register-file reads, Section 5.6.4).
 */

#ifndef CESP_UARCH_RENAME_HPP
#define CESP_UARCH_RENAME_HPP

#include <vector>

#include "isa/isa.hpp"
#include "uarch/config.hpp"
#include "uarch/dyninst.hpp"
#include "uarch/ring.hpp"

namespace cesp::uarch {

/** Scheduling state of one physical register (one cache line). */
struct alignas(64) PhysReg
{
    /** Earliest cycle a consumer in cluster c may issue. */
    uint64_t ready_cycle[kMaxClusters] = {};
    /** Cycle the value is computed (kNeverCycle until scheduled). */
    uint64_t computed_cycle = 0;
    uint64_t producer_seq = kNoSeq; //!< renaming instruction
    int producing_cluster = 0;
    /**
     * True once ready_cycle is final: the producer has
     * issued (or the register is a live-in with no in-flight
     * producer). Until then, dispatched consumers link themselves
     * into first_waiter's list and are woken when the producer
     * issues — the event-driven replacement for broadcasting every
     * result tag to every window entry each cycle.
     */
    bool scheduled = true;
    /**
     * Head of the intrusive list of buffered consumers awaiting this
     * value's schedule (a waiter link, see DynInst::next_waiter;
     * kNoWaiter when empty). The pipeline empties it when the
     * producer issues, which always precedes the register's release,
     * so a freshly renamed register starts with an empty list.
     */
    uint32_t first_waiter = kNoWaiter;

    bool
    readyFor(int cluster, uint64_t now) const
    {
        return ready_cycle[cluster] <= now;
    }

    /**
     * Cycle the value is readable from @p cluster's register file:
     * @p regfile_extra cycles after it reaches the cluster, or 0 for
     * a live-in value with no producer. Meaningful once scheduled.
     */
    uint64_t
    rfVisible(int cluster, int regfile_extra) const
    {
        return producer_seq == kNoSeq
            ? 0
            : ready_cycle[cluster] + static_cast<uint64_t>(regfile_extra);
    }

    /** Value not yet computed as of @p now (outstanding operand). */
    bool
    outstanding(uint64_t now) const
    {
        return computed_cycle > now;
    }
};

/** Map table + free lists + physical register file state. */
class RenameState
{
  public:
    explicit RenameState(const SimConfig &cfg);

    /** Physical register currently mapped to an architectural one. */
    int
    mapOf(int arch_reg) const
    {
        return map_[arch_reg];
    }

    /** Is a free physical register available for this destination? */
    bool hasFreeFor(int arch_dst) const;

    /** Free physical registers remaining in the integer class. */
    size_t freeIntRegs() const { return free_int_.size(); }
    size_t freeFpRegs() const { return free_fp_.size(); }

    /**
     * Rename a destination: allocates a new physical register, updates
     * the map, and returns {new_preg, old_preg}. The caller frees
     * old_preg when the instruction commits.
     */
    struct Renamed
    {
        int preg;
        int old_preg;
    };
    Renamed rename(int arch_dst, uint64_t seq);

    /** Return a physical register to its free list (at commit). */
    void release(int preg);

    PhysReg &preg(int id) { return pregs_[static_cast<size_t>(id)]; }

    const PhysReg &
    preg(int id) const
    {
        return pregs_[static_cast<size_t>(id)];
    }

    int numPregs() const { return static_cast<int>(pregs_.size()); }

  private:
    bool isFpPreg(int preg) const { return preg >= phys_int_; }

    int phys_int_;
    std::vector<PhysReg> pregs_;       //!< int then fp
    std::vector<int> map_;             //!< arch (flat 0..63) -> preg
    Ring<int> free_int_, free_fp_;
};

} // namespace cesp::uarch

#endif // CESP_UARCH_RENAME_HPP
