/**
 * @file
 * Implementation of the trace analysis.
 */

#include "trace/analysis.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/logging.hpp"

namespace cesp::trace {

ScheduleResult
dataflowSchedule(TraceView trace, const ScheduleLimits &limits)
{
    const size_t n = trace.count;
    ScheduleResult r;
    r.instructions = n;
    if (n == 0)
        return r;

    // Issue cycle of the most recent producer of each register.
    std::vector<uint64_t> reg_time(isa::kNumArchRegs, 0);
    // Latest store issue time per word address.
    std::unordered_map<uint32_t, uint64_t> store_time;
    // Issue cycles of all instructions (for the window constraint).
    std::vector<uint64_t> t(n, 0);
    // Instructions issued per cycle (for the width constraint).
    std::vector<uint32_t> per_cycle;

    uint64_t max_cycle = 0;
    for (size_t i = 0; i < n; ++i) {
        const TraceOp &op = trace[i];
        uint64_t ready = 0;
        if (op.src1 > 0)
            ready = std::max(ready, reg_time[op.src1]);
        if (op.src2 > 0)
            ready = std::max(ready, reg_time[op.src2]);
        if (limits.memory_deps && op.isLoad()) {
            auto it = store_time.find(op.mem_addr & ~3u);
            if (it != store_time.end())
                ready = std::max(ready, it->second);
        }
        uint64_t cycle = ready + 1;

        if (limits.window > 0 &&
            i >= static_cast<size_t>(limits.window))
            cycle = std::max(
                cycle, t[i - static_cast<size_t>(limits.window)] + 1);

        if (limits.issue_width > 0) {
            // Find the first cycle at or after `cycle` with a free
            // issue slot.
            if (per_cycle.size() <= cycle + 1)
                per_cycle.resize(2 * (cycle + 1), 0);
            while (per_cycle[cycle] >=
                   static_cast<uint32_t>(limits.issue_width)) {
                ++cycle;
                if (per_cycle.size() <= cycle + 1)
                    per_cycle.resize(2 * (cycle + 1), 0);
            }
            ++per_cycle[cycle];
        }

        t[i] = cycle;
        max_cycle = std::max(max_cycle, cycle);
        if (op.hasDst())
            reg_time[op.dst] = cycle;
        if (limits.memory_deps && op.isStore())
            store_time[op.mem_addr & ~3u] = cycle;
    }

    r.cycles = max_cycle;
    r.ipc = static_cast<double>(n) / static_cast<double>(max_cycle);
    return r;
}

DependenceStats
analyzeDependences(TraceView trace)
{
    DependenceStats stats;
    const size_t n = trace.count;
    stats.instructions = n;
    if (n == 0)
        return stats;

    std::vector<int64_t> producer(isa::kNumArchRegs, -1);
    std::vector<uint64_t> chain(isa::kNumArchRegs, 0);
    uint64_t independent = 0;
    uint64_t adjacent = 0;
    uint64_t longest = 0;

    for (size_t i = 0; i < n; ++i) {
        const TraceOp &op = trace[i];
        int64_t nearest = -1;
        uint64_t depth = 0;
        for (int src : {static_cast<int>(op.src1),
                        static_cast<int>(op.src2)}) {
            if (src <= 0)
                continue;
            int64_t p = producer[static_cast<size_t>(src)];
            if (p >= 0) {
                stats.distance.add(
                    static_cast<double>(static_cast<int64_t>(i) - p));
                nearest = std::max(nearest, p);
                depth = std::max(depth,
                                 chain[static_cast<size_t>(src)]);
            }
        }
        if (nearest < 0)
            ++independent;
        else if (nearest == static_cast<int64_t>(i) - 1)
            ++adjacent;

        if (op.hasDst()) {
            producer[op.dst] = static_cast<int64_t>(i);
            chain[op.dst] = depth + 1;
            longest = std::max(longest, depth + 1);
        }
    }

    stats.independent_frac =
        static_cast<double>(independent) / static_cast<double>(n);
    stats.adjacent_frac =
        static_cast<double>(adjacent) / static_cast<double>(n);
    stats.critical_path = longest;
    return stats;
}

} // namespace cesp::trace
