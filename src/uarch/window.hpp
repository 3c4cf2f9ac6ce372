/**
 * @file
 * Flexible issue window: a capacity-bounded set of waiting
 * instructions from which ready instructions may issue from any
 * position. Two organizations (paper Section 4.3.1):
 *
 *  - AgeCompacted: the window compacts toward the high-priority end
 *    every time instructions issue, so position priority equals age
 *    (oldest-first) — the policy the paper adopts from the HP
 *    PA-8000.
 *  - SlotPriority: no compaction. Dispatch fills the lowest free
 *    slot and priority is by slot position, so after issues create
 *    holes, priority is no longer strictly age order. The paper
 *    conjectures such a "restricted form of compacting" performs the
 *    same; `experiments abl_window_compaction` checks it.
 */

#ifndef CESP_UARCH_WINDOW_HPP
#define CESP_UARCH_WINDOW_HPP

#include <cstdint>
#include <vector>

#include "common/logging.hpp"

namespace cesp::uarch {

/** Window priority organization. */
enum class WindowOrder
{
    AgeCompacted, //!< priority == age (compaction on issue)
    SlotPriority, //!< priority == slot index (no compaction)
};

/** Flexible issue window. */
class IssueWindow
{
  public:
    explicit IssueWindow(int capacity,
                         WindowOrder order = WindowOrder::AgeCompacted);

    int capacity() const { return capacity_; }
    int size() const { return size_; }
    bool full() const { return size_ >= capacity_; }
    bool empty() const { return size_ == 0; }
    WindowOrder order() const { return order_; }

    /**
     * Insert a dispatched instruction (must be youngest so far).
     * Returns the slot index that determines the instruction's
     * selection priority for SlotPriority windows, -1 for
     * AgeCompacted windows (whose priority is age, i.e. seq).
     */
    int insert(uint64_t seq);

    /** Remove an issued instruction. */
    void remove(uint64_t seq);

    /** Instruction in slot @p slot of a SlotPriority window
     *  (UINT64_MAX when the slot is free). */
    uint64_t
    seqAt(int slot) const
    {
        if (slot < 0 || static_cast<size_t>(slot) >= slots_.size())
            panic("IssueWindow: bad slot %d", slot);
        return slots_[static_cast<size_t>(slot)];
    }

    /**
     * Waiting instructions in selection-priority order: ascending
     * age for AgeCompacted, slot order for SlotPriority. Built on
     * each call (the reference scan's view; the event-driven
     * pipeline never needs it).
     */
    const std::vector<uint64_t> &entries() const;

    void clear();

  private:
    static constexpr uint64_t kEmptySlot = UINT64_MAX;

    /** Re-home the AgeCompacted ring at a size holding @p span seqs. */
    void growAged(uint64_t span);

    int capacity_;
    WindowOrder order_;
    int size_ = 0;
    std::vector<uint64_t> slots_;           //!< SlotPriority storage
    /**
     * AgeCompacted storage, indexed by seq: aged_[seq & aged_mask_]
     * holds seq while it waits and kEmptySlot otherwise, so insert
     * and remove are O(1) and age order is index order. The waiting
     * seqs lie in [oldest_, newest_], both kept on live entries; the
     * ring doubles when that span outgrows it (issued instructions
     * leave holes, so the span is bounded by the in-flight
     * instructions, not by the capacity).
     */
    std::vector<uint64_t> aged_;
    uint64_t aged_mask_ = 0;
    uint64_t oldest_ = 0;
    uint64_t newest_ = 0;
    mutable std::vector<uint64_t> scratch_; //!< entries() cache
};

} // namespace cesp::uarch

#endif // CESP_UARCH_WINDOW_HPP
