/**
 * @file
 * Wakeup calendar: event-driven wakeup in its general form.
 *
 * The broadcast-wakeup hardware the paper analyzes (Section 4.2)
 * compares every result tag against every waiting operand every
 * cycle; a software model that mirrors it re-scans the whole window
 * per cycle. The event-driven model inverts that: when an
 * instruction's completion time becomes known at issue, a wakeup for
 * each dependent is due at the exact cycle the value becomes usable
 * (wakeup+select depth, local bypass, and inter-cluster hops are all
 * folded into that cycle by the pipeline), and the select stage only
 * ever looks at instructions whose wakeup has fired.
 *
 * The pipeline keeps its wakeups in a wheel of ready-bitmap words,
 * one slot per cycle, spanning more cycles than any wakeup can be
 * ahead (Pipeline's constructor sizes it from the configured
 * latencies). This calendar is the general form, a queue ordered by
 * cycle with no bound on how far ahead an event may be; the
 * simulator no longer uses it, and perfbench's component replay
 * times it.
 */

#ifndef CESP_UARCH_WAKEUP_HPP
#define CESP_UARCH_WAKEUP_HPP

#include <cstdint>
#include <map>
#include <vector>

#include "common/logging.hpp"

namespace cesp::uarch {

/** Queue of wakeup events keyed by cycle. */
class WakeupCalendar
{
  public:
    /**
     * Schedule instruction @p seq to become selectable at @p cycle.
     * Events may only be scheduled at or beyond the next unpopped
     * cycle (nothing is woken in the past).
     */
    void
    schedule(uint64_t cycle, uint64_t seq)
    {
        if (cycle < cursor_)
            panic("WakeupCalendar: event at cycle %llu behind cursor "
                  "%llu", (unsigned long long)cycle,
                  (unsigned long long)cursor_);
        events_[cycle].push_back(seq);
    }

    /**
     * Append every event due at or before @p now to @p out, in cycle
     * order and, within a cycle, in scheduling order; advance the pop
     * cursor to @p now + 1.
     */
    void
    popDue(uint64_t now, std::vector<uint64_t> &out)
    {
        while (!events_.empty() && events_.begin()->first <= now) {
            const std::vector<uint64_t> &due = events_.begin()->second;
            out.insert(out.end(), due.begin(), due.end());
            events_.erase(events_.begin());
        }
        cursor_ = now + 1;
    }

  private:
    /** Pending events, keyed by cycle. */
    std::map<uint64_t, std::vector<uint64_t>> events_;
    uint64_t cursor_ = 0; //!< next cycle popDue has not yet drained
};

} // namespace cesp::uarch

#endif // CESP_UARCH_WAKEUP_HPP
