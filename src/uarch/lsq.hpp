/**
 * @file
 * Store queue supporting the paper's load issue rule (Table 3: "loads
 * may execute when all prior store addresses are known") and
 * store-to-load forwarding. Stores enter at dispatch; their address
 * becomes known to the hardware when they issue; they leave at commit.
 */

#ifndef CESP_UARCH_LSQ_HPP
#define CESP_UARCH_LSQ_HPP

#include <cstdint>
#include <optional>

#include "uarch/dyninst.hpp"
#include "uarch/ring.hpp"

namespace cesp::uarch {

/**
 * In-flight store tracking. The queue is a seq-ordered ring, so the
 * structure never allocates once it has reached its high-water mark.
 * Stores issue out of order; the load gate needs only the oldest
 * unissued store, which is tracked directly and advanced forward
 * past issued stores when that store issues.
 */
class StoreQueue
{
  public:
    /** A store enters the queue at dispatch (program order).
     *  @p size is the access width in bytes (0 is treated as 1). */
    void dispatch(uint64_t seq, uint32_t addr, uint8_t size = 4);

    /** The store's address becomes known when it issues. */
    void markIssued(uint64_t seq);

    /** The store leaves the queue at commit. */
    void commit(uint64_t seq);

    /**
     * True if any store older than @p load_seq has not yet issued,
     * i.e. the load may not execute yet.
     */
    bool olderStoreUnissued(uint64_t load_seq) const;

    /**
     * Youngest issued store older than @p load_seq whose bytes fully
     * cover the load's [@p addr, @p addr + @p size); nullopt if none
     * (the load goes to the cache). The youngest *overlapping* store
     * decides the outcome: if it only partially covers the load (a
     * 1-byte store vs a 4-byte load, say) or has not issued, nothing
     * forwards — an older covering store would supply bytes the
     * overlapping store has since made stale.
     */
    std::optional<uint64_t> forwardFrom(uint64_t load_seq,
                                        uint32_t addr,
                                        uint8_t size = 4) const;

    size_t size() const { return stores_.size(); }
    void clear();

  private:
    struct Store
    {
        uint64_t seq;
        uint32_t addr;
        uint8_t size;
        bool issued = false;
    };

    /** Index into stores_ of @p seq, or stores_.size() if absent. */
    size_t find(uint64_t seq) const;

    Ring<Store> stores_;              //!< program order (by seq)
    size_t unissued_count_ = 0;       //!< stores not yet issued
    uint64_t oldest_unissued_ = kNoSeq; //!< kNoSeq when none
};

} // namespace cesp::uarch

#endif // CESP_UARCH_LSQ_HPP
