/**
 * @file
 * Implementation of the issue window.
 */

#include "uarch/window.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "uarch/ring.hpp"

namespace cesp::uarch {

IssueWindow::IssueWindow(int capacity, WindowOrder order)
    : capacity_(capacity), order_(order)
{
    if (capacity < 1)
        panic("IssueWindow: capacity %d < 1", capacity);
    if (order_ == WindowOrder::SlotPriority)
        slots_.assign(static_cast<size_t>(capacity), kEmptySlot);
    else
        growAged(2 * static_cast<uint64_t>(capacity));
}

void
IssueWindow::growAged(uint64_t span)
{
    std::vector<uint64_t> grown(
        std::max(ceilPow2(static_cast<size_t>(span)), 2 * aged_.size()),
        kEmptySlot);
    uint64_t mask = grown.size() - 1;
    if (size_ > 0)
        for (uint64_t s = oldest_; s <= newest_; ++s)
            if (aged_[s & aged_mask_] == s)
                grown[s & mask] = s;
    aged_.swap(grown);
    aged_mask_ = mask;
}

int
IssueWindow::insert(uint64_t seq)
{
    if (full())
        panic("IssueWindow: insert into full window");
    int slot = -1;
    if (order_ == WindowOrder::AgeCompacted) {
        if (size_ == 0) {
            oldest_ = seq;
        } else {
            if (newest_ >= seq)
                panic("IssueWindow: out-of-order insert");
            if (seq - oldest_ > aged_mask_)
                growAged(seq - oldest_ + 1);
        }
        newest_ = seq;
        aged_[seq & aged_mask_] = seq;
    } else {
        // Lowest free slot: freed slots are reused out of age order.
        auto it = std::find(slots_.begin(), slots_.end(), kEmptySlot);
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
    if (order_ == WindowOrder::AgeCompacted) {
        if (size_ == 0 || seq < oldest_ || seq > newest_ ||
            aged_[seq & aged_mask_] != seq)
            panic("IssueWindow: remove of absent instruction");
        aged_[seq & aged_mask_] = kEmptySlot;
        // Keep both span ends on live entries (a live one remains
        // between them unless the window emptied).
        if (size_ > 1) {
            if (seq == oldest_)
                while (aged_[++oldest_ & aged_mask_] == kEmptySlot) {
                }
            else if (seq == newest_)
                while (aged_[--newest_ & aged_mask_] == kEmptySlot) {
                }
        }
    } else {
        auto it = std::find(slots_.begin(), slots_.end(), seq);
        if (it == slots_.end())
            panic("IssueWindow: remove of absent instruction");
        *it = kEmptySlot;
    }
    --size_;
}

const std::vector<uint64_t> &
IssueWindow::entries() const
{
    scratch_.clear();
    if (order_ == WindowOrder::AgeCompacted) {
        if (size_ > 0)
            for (uint64_t s = oldest_; s <= newest_; ++s)
                if (aged_[s & aged_mask_] == s)
                    scratch_.push_back(s);
        return scratch_;
    }
    for (uint64_t s : slots_)
        if (s != kEmptySlot)
            scratch_.push_back(s);
    return scratch_;
}

void
IssueWindow::clear()
{
    if (order_ == WindowOrder::SlotPriority)
        slots_.assign(static_cast<size_t>(capacity_), kEmptySlot);
    else
        std::fill(aged_.begin(), aged_.end(), kEmptySlot);
    size_ = 0;
}

} // namespace cesp::uarch
