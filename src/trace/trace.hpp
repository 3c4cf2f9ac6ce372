/**
 * @file
 * Dynamic instruction trace: the interface between the functional
 * emulator (or the synthetic generator) and the timing simulator.
 * The paper's methodology is trace-driven cycle simulation (a modified
 * SimpleScalar); TraceOp carries exactly what that style of simulator
 * needs per dynamic instruction: operand registers, memory address,
 * and the actual control-flow outcome.
 */

#ifndef CESP_TRACE_TRACE_HPP
#define CESP_TRACE_TRACE_HPP

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "isa/isa.hpp"

namespace cesp::trace {

/**
 * One dynamic instruction. Its actual successor (the branch outcome)
 * is the next record's pc, `trace[i + 1].pc`, so a record does not
 * store it.
 */
struct TraceOp
{
    uint32_t pc = 0;
    uint32_t mem_addr = 0;  //!< effective address for loads/stores
    isa::Opcode op = isa::Opcode::NOP;
    isa::OpClass cls = isa::OpClass::Nop;
    int8_t dst = -1;        //!< flat arch register, -1/0 = none
    int8_t src1 = -1;
    int8_t src2 = -1;
    uint8_t mem_size = 0;   //!< access size in bytes (loads/stores)
    bool taken = false;     //!< branch outcome (true for taken)
    uint8_t pad = 0;        //!< explicit zero so the record has no
                            //!< indeterminate bytes (trace files CRC
                            //!< the raw in-memory layout)

    bool
    hasDst() const
    {
        return dst > 0; // integer r0 never creates a dependence
    }

    bool isLoad() const { return cls == isa::OpClass::Load; }
    bool isStore() const { return cls == isa::OpClass::Store; }

    bool
    isCondBranch() const
    {
        return cls == isa::OpClass::BranchCond;
    }
};

// The trace file format (v3) stores TraceOp's in-memory layout
// verbatim (one 16-byte record per dynamic instruction), so reading
// is a pointer cast instead of a decode pass. Pin the layout here:
// if a field is added or reordered, these fire and the format
// version must be bumped. The files are little-endian, and so is
// every host this builds for.
static_assert(std::endian::native == std::endian::little,
              "trace files are TraceOp's little-endian layout");
static_assert(sizeof(TraceOp) == 16, "trace record layout changed");
static_assert(std::is_trivially_copyable_v<TraceOp>,
              "trace records must be raw-copyable");
static_assert(offsetof(TraceOp, pc) == 0 &&
              offsetof(TraceOp, mem_addr) == 4 &&
              offsetof(TraceOp, op) == 8 &&
              offsetof(TraceOp, cls) == 9 &&
              offsetof(TraceOp, dst) == 10 &&
              offsetof(TraceOp, src1) == 11 &&
              offsetof(TraceOp, src2) == 12 &&
              offsetof(TraceOp, mem_size) == 13 &&
              offsetof(TraceOp, taken) == 14 &&
              offsetof(TraceOp, pad) == 15,
              "trace record layout changed");

/** Consumer interface for dynamic instructions. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void append(const TraceOp &op) = 0;
};

/** In-memory trace: a sink whose records are read back by index or
 *  through a TraceView. */
class TraceBuffer : public TraceSink
{
  public:
    void
    append(const TraceOp &op) override
    {
        ops_.push_back(op);
    }

    /** Replace the contents wholesale (bulk-load path: file I/O
     *  reads records straight into a vector, no append loop). */
    void assign(std::vector<TraceOp> ops) { ops_ = std::move(ops); }

    size_t size() const { return ops_.size(); }
    bool empty() const { return ops_.empty(); }
    const TraceOp &operator[](size_t i) const { return ops_[i]; }
    const std::vector<TraceOp> &ops() const { return ops_; }

  private:
    std::vector<TraceOp> ops_;
};

/**
 * Non-owning view of a contiguous run of trace records. This is the
 * common currency between the two shared-trace storage kinds — a
 * TraceBuffer's vector and an MmapTraceSource's file mapping — and
 * what the sweep runner passes around: a view is two words, freely
 * copyable, and many simulations can read through one concurrently.
 * The storage behind the view must stay alive (and must not
 * reallocate: don't append to a TraceBuffer while views of it are
 * live) for as long as the view is used.
 */
struct TraceView
{
    const TraceOp *records = nullptr;
    size_t count = 0;

    TraceView() = default;
    TraceView(const TraceOp *r, size_t n) : records(r), count(n) {}
    /*implicit*/ TraceView(const TraceBuffer &buf)
        : records(buf.ops().data()), count(buf.size())
    {
    }

    bool empty() const { return count == 0; }
    const TraceOp &operator[](size_t i) const { return records[i]; }

    /**
     * The contiguous window of @p n records starting at @p offset —
     * the zero-copy currency of trace sharding: a shard's window is
     * a view into the same storage, so splitting a trace K ways
     * allocates nothing. Fatal if the window reaches past the end.
     */
    TraceView slice(size_t offset, size_t n) const;
};

/** Former name of a view, kept only because the perfbench harness
 *  still wraps a view in a "cursor" before handing it to the
 *  pipeline. New code says TraceView. */
using TraceCursor = TraceView;

/** Summary statistics of a trace (used by tests and reports). */
struct TraceMix
{
    uint64_t total = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t cond_branches = 0;
    uint64_t uncond = 0;
    uint64_t int_alu = 0;
    uint64_t other = 0;

    double
    frac(uint64_t n) const
    {
        return total ? static_cast<double>(n) /
            static_cast<double>(total) : 0.0;
    }
};

/** Classify every op of a trace. */
TraceMix computeMix(TraceView trace);

} // namespace cesp::trace

#endif // CESP_TRACE_TRACE_HPP
