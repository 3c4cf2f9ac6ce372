/**
 * @file
 * The benchmark workloads.
 *
 * The paper evaluates seven SPEC'95 integer benchmarks (compress, gcc,
 * go, li, m88ksim, perl, vortex) with their training inputs. SPEC
 * sources cannot be redistributed, so each workload here is a
 * hand-written PJ-RISC assembly kernel built around the benchmark's
 * dominant computational pattern:
 *
 *   compress  - LZW compression: hash-probe dictionary over a
 *               repetitive byte stream (serial hash chains).
 *   gcc       - lexer/parser front end: character-class jump tables,
 *               token hashing (irregular, branchy).
 *   go        - recursive board-position search with pruning
 *               (recursion, data-dependent branches).
 *   li        - list interpreter: cons-cell allocation and pointer-
 *               chasing list traversals (long dependence chains).
 *   m88ksim   - instruction-set simulator main loop: fetch, field
 *               decode, dispatch table, simulated register file.
 *   perl      - string hashing and hash-table association processing.
 *   vortex    - object database: record copies, index insertion and
 *               lookup (memory-rich, highly parallel).
 *
 * Each kernel generates its own input data (deterministic LCG),
 * computes a checksum, prints it via PUTC, and halts; the checksum
 * makes functional correctness testable and guards against silent
 * emulator regressions.
 */

#ifndef CESP_WORKLOADS_WORKLOADS_HPP
#define CESP_WORKLOADS_WORKLOADS_HPP

#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace cesp::workloads {

/** A registered benchmark kernel. */
struct Workload
{
    std::string name;          //!< e.g. "compress"
    std::string description;
    const char *source;        //!< PJ-RISC assembly text
    uint64_t max_instructions; //!< emulation bound (safety)
    std::string expected_console; //!< golden checksum output
};

/** All seven workloads, in the paper's figure order. */
const std::vector<Workload> &allWorkloads();

/**
 * Additional workloads beyond the paper's seven (not part of the
 * figure reproductions): "tomcatv", an FP stencil kernel exercising
 * the floating-point register class.
 */
const std::vector<Workload> &extraWorkloads();

/** Look up one workload by name (fatal if unknown). */
const Workload &workload(const std::string &name);

/**
 * Execute a workload on the functional emulator, appending every
 * retired instruction to @p sink as it retires (nothing is buffered
 * here, so the sink decides what the trace costs in memory). Fatal if
 * the kernel does not halt within its instruction bound or its
 * checksum does not match the golden value.
 */
void streamTraceOf(const Workload &w, trace::TraceSink &sink);

/** streamTraceOf into a TraceBuffer: the whole trace in memory. */
trace::TraceBuffer traceOf(const Workload &w);

/** Names only, for harness iteration. */
std::vector<std::string> workloadNames();

} // namespace cesp::workloads

#endif // CESP_WORKLOADS_WORKLOADS_HPP
