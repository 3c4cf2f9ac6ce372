/**
 * @file
 * Per-dynamic-instruction state carried through the timing pipeline:
 * one record per instruction, written by fetch into its ROB slot and
 * completed there by dispatch, issue and commit.
 */

#ifndef CESP_UARCH_DYNINST_HPP
#define CESP_UARCH_DYNINST_HPP

#include <cstdint>

#include "trace/trace.hpp"

namespace cesp::uarch {

/** Sentinel cycle meaning "not yet scheduled". */
constexpr uint64_t kNeverCycle = UINT64_MAX / 2;

/** Sentinel sequence number. */
constexpr uint64_t kNoSeq = UINT64_MAX;

/**
 * Waiter-list link: (ROB storage slot << 1) | source operand (0 =
 * src1, 1 = src2) of a buffered consumer, or kNoWaiter at the list
 * end.
 */
constexpr uint32_t kNoWaiter = UINT32_MAX;

/** One dynamic instruction, from fetch to commit. */
struct DynInst
{
    trace::TraceOp op;
    uint64_t seq = kNoSeq;     //!< program order, from 0

    // Renamed operands (physical register ids; -1 = none).
    int dst_preg = -1;
    int src1_preg = -1;
    int src2_preg = -1;
    int old_preg = -1;         //!< previous mapping, freed at commit

    int cluster = -1;          //!< execution cluster (-1 = unassigned)
    int fifo = -1;             //!< FIFO id (real or conceptual)

    uint64_t frontend_exit = 0;  //!< earliest rename cycle
    uint64_t dispatch_cycle = kNeverCycle;
    uint64_t issue_cycle = kNeverCycle;
    uint64_t complete_cycle = kNeverCycle;

    // Event-driven wakeup state (maintained by the pipeline when
    // wakeup events are active; unused by the reference scan path).
    /** Next link of the waiter list each source operand sits on
     *  (see PhysReg::first_waiter); one link per operand, so an
     *  instruction reading one register twice waits on it twice. */
    uint32_t next_waiter[2] = {kNoWaiter, kNoWaiter};
    /** Latest ready cycle, in the assigned cluster, of the sources
     *  scheduled so far: each is folded in as it is scheduled, so the
     *  last one leaves the wakeup cycle here (0 with no sources; not
     *  kept while the cluster is unassigned). */
    uint64_t ready_at = 0;
    /** Source registers whose producer has not been scheduled yet. */
    int8_t pending_srcs = 0;

    bool in_buffer = false;    //!< waiting in window/FIFO
    bool issued = false;
    bool mispredicted = false; //!< conditional branch, wrong direction

    bool
    readyToCommit(uint64_t now) const
    {
        return issued && complete_cycle <= now;
    }
};

} // namespace cesp::uarch

#endif // CESP_UARCH_DYNINST_HPP
