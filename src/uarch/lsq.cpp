/**
 * @file
 * Implementation of the store queue.
 */

#include "uarch/lsq.hpp"

#include "common/logging.hpp"

namespace cesp::uarch {

void
StoreQueue::dispatch(uint64_t seq, uint32_t addr, uint8_t size)
{
    if (!stores_.empty() && stores_.back().seq >= seq)
        panic("StoreQueue: out-of-order dispatch");
    stores_.push_back({seq, addr, size ? size : uint8_t{1}, false});
    // The youngest store is the oldest unissued one only if no other
    // store is waiting.
    if (unissued_count_++ == 0)
        oldest_unissued_ = seq;
}

size_t
StoreQueue::find(uint64_t seq) const
{
    size_t lo = 0, hi = stores_.size();
    while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (stores_[mid].seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < stores_.size() && stores_[lo].seq == seq
        ? lo
        : stores_.size();
}

void
StoreQueue::markIssued(uint64_t seq)
{
    size_t i = find(seq);
    if (i == stores_.size() || stores_[i].issued)
        panic("StoreQueue: issue of unknown store");
    stores_[i].issued = true;
    --unissued_count_;
    if (seq != oldest_unissued_)
        return;
    // Advance to the next unissued store; everything older than it
    // has issued.
    oldest_unissued_ = kNoSeq;
    if (unissued_count_ == 0)
        return;
    for (++i; i < stores_.size(); ++i) {
        if (!stores_[i].issued) {
            oldest_unissued_ = stores_[i].seq;
            return;
        }
    }
    panic("StoreQueue: unissued count out of step with the queue");
}

void
StoreQueue::commit(uint64_t seq)
{
    if (stores_.empty() || stores_.front().seq != seq)
        panic("StoreQueue: out-of-order commit");
    if (!stores_.front().issued)
        panic("StoreQueue: commit of unissued store");
    stores_.pop_front();
}

bool
StoreQueue::olderStoreUnissued(uint64_t load_seq) const
{
    return oldest_unissued_ < load_seq; // kNoSeq when none waits
}

std::optional<uint64_t>
StoreQueue::forwardFrom(uint64_t load_seq, uint32_t addr,
                        uint8_t size) const
{
    // 64-bit ends so a store at the top of the address space does
    // not wrap to "covers everything".
    uint64_t lo = addr;
    uint64_t hi = lo + (size ? size : 1);
    for (size_t i = stores_.size(); i-- > 0;) {
        const Store &st = stores_[i];
        if (st.seq >= load_seq)
            continue;
        uint64_t s_lo = st.addr;
        uint64_t s_hi = s_lo + st.size;
        if (s_hi <= lo || hi <= s_lo)
            continue; // disjoint — keep scanning older stores
        // The youngest overlapping store decides: forward only if it
        // fully covers the load and has issued. Anything less (a
        // partial overlap, or data not yet available) means an older
        // store cannot supply the load either — some of its bytes
        // are stale — so the load must go to the cache.
        if (st.issued && s_lo <= lo && hi <= s_hi)
            return st.seq;
        return std::nullopt;
    }
    return std::nullopt;
}

void
StoreQueue::clear()
{
    stores_.clear();
    unissued_count_ = 0;
    oldest_unissued_ = kNoSeq;
}

} // namespace cesp::uarch
