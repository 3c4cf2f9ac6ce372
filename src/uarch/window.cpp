/**
 * @file
 * Implementation of the issue window.
 */

#include "uarch/window.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace cesp::uarch {

IssueWindow::IssueWindow(int capacity, WindowOrder order)
    : capacity_(capacity), order_(order)
{
    if (capacity < 1)
        panic("IssueWindow: capacity %d < 1", capacity);
    if (order_ == WindowOrder::SlotPriority)
        slots_.assign(static_cast<size_t>(capacity), kNoSeq);
}

int
IssueWindow::insert(uint64_t seq)
{
    if (full())
        panic("IssueWindow: insert into full window");
    int slot = -1;
    if (order_ == WindowOrder::SlotPriority) {
        // Lowest free slot: freed slots are reused out of age order.
        auto it = std::find(slots_.begin(), slots_.end(), kNoSeq);
        if (it == slots_.end())
            panic("IssueWindow: no free slot despite size check");
        *it = seq;
        slot = static_cast<int>(it - slots_.begin());
    }
    ++size_;
    return slot;
}

void
IssueWindow::remove(uint64_t seq)
{
    if (order_ == WindowOrder::SlotPriority) {
        auto it = std::find(slots_.begin(), slots_.end(), seq);
        if (it == slots_.end())
            panic("IssueWindow: remove of absent instruction");
        *it = kNoSeq;
    } else if (size_ == 0) {
        panic("IssueWindow: remove from empty window");
    }
    --size_;
}

} // namespace cesp::uarch
