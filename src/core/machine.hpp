/**
 * @file
 * The workload trace cache: every harness that simulates the named
 * benchmark workloads resolves their traces here (core::runGrid does
 * it for whole configurations x workloads experiments), then hands
 * them to core::run or uarch::simulate.
 */

#ifndef CESP_CORE_MACHINE_HPP
#define CESP_CORE_MACHINE_HPP

#include <string>

#include "trace/trace.hpp"

namespace cesp::core {

/**
 * Process-wide cache of workload traces: generating a trace runs the
 * functional emulator, so harnesses comparing many configurations
 * over the same benchmarks reuse one copy per workload.
 *
 * Backing storage depends on the cross-process disk cache
 * (CESP_TRACE_CACHE; see DESIGN.md §6). When a valid file is on
 * disk the entry is served by an MmapTraceSource — records come
 * straight from the page cache, shared with every other process
 * mapping the same file, with zero decode. When the file is missing
 * or fails integrity checks (each failure is logged with its distinct
 * cause), the emulator streams the trace straight into a freshly
 * published file, which is then mapped and verified like any other,
 * so no whole trace is ever held in memory. Only when the disk cache
 * is disabled, or publishing fails, does the trace regenerate into a
 * private buffer.
 *
 * Safe to call from any thread: each entry is built exactly once,
 * under a lock, and never changes afterwards, so every caller gets
 * the same records. The view stays valid until clearTraceCache().
 */
trace::TraceView cachedWorkloadTraceView(const std::string &name);

/** Drop all cached traces and mappings (frees tens of MB);
 *  invalidates every view previously returned. Must not race with
 *  simulations still reading those views. */
void clearTraceCache();

} // namespace cesp::core

#endif // CESP_CORE_MACHINE_HPP
