/**
 * @file
 * Trace analysis: dataflow ILP limits and dependence statistics.
 *
 * The paper's premise is that "a larger window is required for
 * finding more independent instructions to take advantage of wider
 * issue" (Section 4.2.2). This module measures that directly on a
 * trace: the dataflow (infinite-machine) IPC, the IPC under a finite
 * window and issue width with everything else perfect, and the
 * register dependence-distance distribution that the steering
 * heuristic exploits.
 */

#ifndef CESP_TRACE_ANALYSIS_HPP
#define CESP_TRACE_ANALYSIS_HPP

#include "common/stats.hpp"
#include "trace/trace.hpp"

namespace cesp::trace {

/** Constraints for the idealized dataflow schedule. */
struct ScheduleLimits
{
    /**
     * Instructions simultaneously in flight (0 = unbounded). With a
     * window of W, instruction i cannot issue before instruction
     * i - W has issued (in-order dispatch into the window).
     */
    int window = 0;
    /** Instructions issued per cycle (0 = unbounded). */
    int issue_width = 0;
    /**
     * Honor memory dependences: a load may not issue before the
     * latest earlier store to the same word.
     */
    bool memory_deps = true;
};

/** Result of an idealized schedule. */
struct ScheduleResult
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;       //!< critical-path length in cycles
    double ipc = 0.0;
};

/**
 * Schedule the trace on an idealized machine: unit latency, perfect
 * branch prediction and caches, full bypassing — only data
 * dependences and the given limits constrain issue.
 */
ScheduleResult dataflowSchedule(TraceView trace,
                                const ScheduleLimits &limits = {});

/** Register dependence statistics of a trace. */
struct DependenceStats
{
    uint64_t instructions = 0;
    /** Distances (in dynamic instructions) to each source producer. */
    Sample distance;
    /** Fraction of instructions with no in-trace register producer. */
    double independent_frac = 0.0;
    /**
     * Fraction whose *nearest* producer is the immediately preceding
     * instruction (steered directly behind it by the heuristic).
     */
    double adjacent_frac = 0.0;
    /** Length of the longest register dependence chain (ops). */
    uint64_t critical_path = 0;
};

/** Compute register dependence statistics. */
DependenceStats analyzeDependences(TraceView trace);

} // namespace cesp::trace

#endif // CESP_TRACE_ANALYSIS_HPP
