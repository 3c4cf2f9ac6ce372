/**
 * @file
 * Ready-event calendar for the event-driven issue model.
 *
 * The broadcast-wakeup hardware the paper analyzes (Section 4.2)
 * compares every result tag against every waiting operand every
 * cycle; a software model that mirrors it re-scans the whole window
 * per cycle. The calendar inverts that: when an instruction's
 * completion time becomes known at issue, a wakeup event for each
 * dependent is pushed at the exact cycle the value becomes usable
 * (wakeup+select depth, local bypass, and inter-cluster hops are all
 * folded into that cycle by the pipeline), and the select stage only
 * ever looks at instructions whose event has fired: each cycle the
 * pipeline drains the due events and sets their instructions' bits in
 * its ready bitmap, which select then walks in priority order.
 *
 * Storage is a bucketed ring keyed by cycle for near events (the
 * common case: latencies of a few cycles) with an ordered map
 * overflow for events beyond the ring horizon (long memory latencies,
 * extreme bypass configurations). Cycles are popped monotonically;
 * the pipeline pops every cycle it simulates, including the target
 * cycle of an idle-cycle jump.
 */

#ifndef CESP_UARCH_WAKEUP_HPP
#define CESP_UARCH_WAKEUP_HPP

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "common/logging.hpp"
#include "uarch/dyninst.hpp"

namespace cesp::uarch {

/** Bucketed queue of wakeup events keyed by cycle. */
class WakeupCalendar
{
  public:
    bool empty() const { return count_ == 0; }

    /**
     * Schedule instruction @p seq to become selectable at @p cycle.
     * Events may only be scheduled at or beyond the next unpopped
     * cycle (the pipeline never needs to wake anything in the past).
     * Duplicate events for one instruction are permitted; setting a
     * ready bit twice is harmless, so they fire once.
     */
    void
    schedule(uint64_t cycle, uint64_t seq)
    {
        if (cycle < cursor_)
            panic("WakeupCalendar: event at cycle %llu behind cursor "
                  "%llu", (unsigned long long)cycle,
                  (unsigned long long)cursor_);
        if (cycle - cursor_ < kHorizon) {
            Bucket &b = ring_[cycle & (kHorizon - 1)];
            if (b.cycle != cycle) {
                b.cycle = cycle;
                b.seqs.clear();
            }
            b.seqs.push_back(seq);
        } else {
            far_[cycle].push_back(seq);
        }
        ++count_;
    }

    /**
     * Append every event due at or before @p now to @p out and
     * advance the pop cursor to @p now + 1. Cycles between the last
     * pop and @p now are drained in order (after an idle-cycle jump
     * they are empty by construction).
     */
    void
    popDue(uint64_t now, std::vector<uint64_t> &out)
    {
        drainDue(now, [&out](uint64_t seq) { out.push_back(seq); });
    }

    /**
     * popDue without the output vector: call @p visit(seq) for every
     * event due at or before @p now, in popDue's order. @p visit must
     * not schedule into this calendar.
     */
    template <class Visit>
    void
    drainDue(uint64_t now, Visit &&visit)
    {
        if (count_ != 0) {
            for (uint64_t c = cursor_; c <= now && count_ != 0; ++c) {
                Bucket &b = ring_[c & (kHorizon - 1)];
                if (b.cycle != c || b.seqs.empty())
                    continue;
                for (uint64_t seq : b.seqs)
                    visit(seq);
                count_ -= b.seqs.size();
                b.seqs.clear();
            }
            while (!far_.empty() && far_.begin()->first <= now) {
                for (uint64_t seq : far_.begin()->second)
                    visit(seq);
                count_ -= far_.begin()->second.size();
                far_.erase(far_.begin());
            }
        }
        cursor_ = now + 1;
    }

    /**
     * Cycle of the earliest pending event, or kNeverCycle if none.
     * Used by the idle-cycle skip to bound how far the clock may
     * jump.
     */
    uint64_t
    nextEventCycle() const
    {
        if (count_ == 0)
            return kNeverCycle;
        // A far event can precede every ring event once the cursor
        // has advanced close to it, so the ring scan must stop at the
        // far minimum rather than shadow it.
        uint64_t best =
            far_.empty() ? kNeverCycle : far_.begin()->first;
        for (uint64_t c = cursor_; c < cursor_ + kHorizon && c < best;
             ++c) {
            const Bucket &b = ring_[c & (kHorizon - 1)];
            if (b.cycle == c && !b.seqs.empty())
                return c;
        }
        return best;
    }

  private:
    /** Ring span in cycles; must be a power of two. */
    static constexpr uint64_t kHorizon = 64;

    struct Bucket
    {
        uint64_t cycle = UINT64_MAX; //!< tag: which cycle seqs is for
        std::vector<uint64_t> seqs;
    };

    std::array<Bucket, kHorizon> ring_;
    /** Events at cycles beyond the ring horizon, keyed by cycle. */
    std::map<uint64_t, std::vector<uint64_t>> far_;
    uint64_t cursor_ = 0; //!< next cycle popDue has not yet drained
    uint64_t count_ = 0;  //!< pending events across ring and far
};

} // namespace cesp::uarch

#endif // CESP_UARCH_WAKEUP_HPP
