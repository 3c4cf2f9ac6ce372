/**
 * @file
 * Flexible issue window: a capacity-bounded set of waiting
 * instructions from which ready instructions may issue from any
 * position. Two organizations (paper Section 4.3.1):
 *
 *  - AgeCompacted: the window compacts toward the high-priority end
 *    every time instructions issue, so position priority equals age
 *    (oldest-first) — the policy the paper adopts from the HP
 *    PA-8000. Age order is the ROB's order (the pipeline reads it
 *    there), so this window is only an occupancy count.
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
#include "uarch/dyninst.hpp"

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

    /** Insert a dispatched instruction. A SlotPriority window puts
     *  it in its lowest free slot (see seqAt); an AgeCompacted one
     *  only counts it, since its priority is age, i.e. seq. */
    void insert(uint64_t seq);

    /** Remove an issued instruction. */
    void remove(uint64_t seq);

    /** Instruction in slot @p slot of a SlotPriority window
     *  (kNoSeq when the slot is free). */
    uint64_t
    seqAt(int slot) const
    {
        if (slot < 0 || static_cast<size_t>(slot) >= slots_.size())
            panic("IssueWindow: bad slot %d", slot);
        return slots_[static_cast<size_t>(slot)];
    }

  private:
    int capacity_;
    WindowOrder order_;
    int size_ = 0;
    std::vector<uint64_t> slots_; //!< SlotPriority storage
};

} // namespace cesp::uarch

#endif // CESP_UARCH_WINDOW_HPP
