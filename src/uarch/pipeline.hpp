/**
 * @file
 * The trace-driven out-of-order timing simulator: the Figure 1 / 11
 * pipeline (fetch, decode, rename/steer, wakeup/select, execute,
 * d-cache access, writeback/bypass, commit) with all the Table 3
 * machine parameters, the dependence-based FIFO organization of
 * Section 5, and the clustered variants of Section 5.6.
 *
 * Simulation is cycle-driven. Each cycle processes commit, issue
 * (wakeup/select), dispatch (rename + steer + buffer insert), and
 * fetch, in that order, using per-physical-register ready timestamps
 * so dependent single-cycle operations issue in back-to-back cycles.
 * Recovery is the standard trace-driven model: a mispredicted
 * conditional branch stalls instruction delivery until it executes.
 *
 * Ready instructions are discovered from wakeup events rather than
 * a per-cycle scan of the whole buffer (IssueModel::EventDriven, the
 * default): issuing an instruction schedules a wakeup for each
 * dependent at the exact cycle its operands become usable (in a wheel
 * of ready-bitmap words, one slot per cycle), and the select stage
 * walks a ready bitmap keyed by age slot, oldest first. The event
 * path serves only that order, the paper's (Section 4.3); the
 * per-cycle scan, IssueModel::LegacyScan, serves every order and is
 * what youngest-first, random, slot-priority and in-order machines
 * run under either model. The two are cycle- and statistic-exact
 * against each other (enforced by tests/test_event_sched.cpp).
 *
 * The ROB is the one record of in-flight age order: both models read
 * age from it, and the issue buffers only hold capacity (and, for a
 * slot-priority window, slot positions; for FIFOs, chain order).
 *
 * The loop is compiled per issue-buffer organization: run() switches
 * once on SimConfig::style to runLoop<S>(), and the stages that read
 * the style are member templates on it whose style tests are
 * `if constexpr`, the one place a new organization plugs in. Each
 * has one body, instantiated for the three styles.
 *
 * The hot-path state is dense and, once a run warms up,
 * allocation-free: an instruction lives in one slot of a power-of-two
 * ring, indexed by seq & mask, from fetch to commit. Fetch writes the
 * trace record there, dispatch renames and steers it in place (the
 * fetched but undispatched seqs are the fetch queue), and consumers
 * wait on a producer's register through intrusive lists threaded
 * through their slots.
 */

#ifndef CESP_UARCH_PIPELINE_HPP
#define CESP_UARCH_PIPELINE_HPP

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "bpred/bpred.hpp"
#include "common/metrics.hpp"
#include "common/stats.hpp"
#include "common/rng.hpp"
#include "mem/cache.hpp"
#include "trace/trace.hpp"
#include "uarch/config.hpp"
#include "uarch/dyninst.hpp"
#include "uarch/fifos.hpp"
#include "uarch/lsq.hpp"
#include "uarch/rename.hpp"
#include "uarch/ring.hpp"
#include "uarch/steering.hpp"
#include "uarch/window.hpp"

namespace cesp::uarch {

/**
 * The simulator's metrics, each declared exactly once. A row
 * generates the metric's storage index, its accessor pair, and its
 * registration call; row order is registration order, which is the
 * export order. Counters and histograms are exported under their
 * accessor name.
 *
 * Scalar counters: X(name, unit, description). The per-cluster issue
 * counters follow them (see SimStats::issued_per_cluster).
 */
#define CESP_SIM_COUNTERS(X)                                                  \
    X(cycles, "cycles", "Simulated clock cycles")                             \
    X(fetched, "instructions",                                                \
      "Instructions fetched (including wrong-path stall shadows)")            \
    X(dispatched, "instructions",                                             \
      "Instructions renamed, steered, and inserted into the issue "           \
      "buffering")                                                            \
    X(issued, "instructions", "Instructions issued to functional units")      \
    X(committed, "instructions", "Instructions retired in program order")     \
    X(cond_branches, "instructions", "Conditional branches fetched")          \
    X(mispredicts, "instructions", "Conditional branches mispredicted")       \
    X(loads, "instructions", "Loads committed")                               \
    X(stores, "instructions", "Stores committed")                             \
    X(store_forwards, "instructions",                                         \
      "Loads satisfied by store-queue forwarding")                            \
    X(dcache_accesses, "accesses", "L1 data-cache accesses")                  \
    X(dcache_misses, "accesses", "L1 data-cache misses")                      \
    X(l2_accesses, "accesses",                                                \
      "L2 cache accesses (0 when no L2 configured)")                          \
    X(l2_misses, "accesses", "L2 cache misses")                               \
    X(intercluster_bypasses, "instructions",                                  \
      "Committed instructions that used an inter-cluster bypass "             \
      "(Sec. 5.6.4)")                                                         \
    X(steer_new_fifo, "instructions",                                         \
      "Steering: started a new FIFO (Sec. 5.1)")                              \
    X(steer_chain_left, "instructions",                                       \
      "Steering: chained behind the left source")                             \
    X(steer_chain_right, "instructions",                                      \
      "Steering: chained behind the right source")                            \
    X(dispatch_stall_buffer, "cycles", "Dispatch stalled: window/FIFO full")  \
    X(dispatch_stall_regs, "cycles",                                          \
      "Dispatch stalled: no free physical register")                          \
    X(dispatch_stall_rob, "cycles",                                           \
      "Dispatch stalled: in-flight limit reached")

/**
 * Histograms: X(name, unit, description, buckets, width, growable).
 * buffer_occupancy is growable: sized by the largest occupancy
 * actually seen, so a 2x4 FIFO machine exports ~9 buckets while a
 * 128-entry window machine grows to ~129, with no per-organization
 * sizing constant.
 */
#define CESP_SIM_HISTOGRAMS(X)                                                \
    X(buffer_occupancy, "entries",                                            \
      "Per-cycle occupancy of the issue buffering (window/FIFOs)", 32,        \
      1.0, true)                                                              \
    X(issue_sizes, "instructions", "Instructions issued per cycle", 17,       \
      1.0, false)

/**
 * Derived ratios, scale * numerator / denominator over two counters:
 * X(accessor, export name, unit, description, numerator counter,
 *   denominator counter, scale).
 */
#define CESP_SIM_DERIVED(X)                                                   \
    X(ipc, "ipc", "inst/cycle", "Committed instructions per cycle",           \
      committed, cycles, 1.0)                                                 \
    X(mispredictRate, "mispredict_rate", "fraction",                          \
      "Mispredicted fraction of conditional branches", mispredicts,           \
      cond_branches, 1.0)                                                     \
    X(interClusterPct, "intercluster_pct", "%",                               \
      "Committed instructions bypassing between clusters "                    \
      "(Sec. 5.6.4)", intercluster_bypasses, committed, 100.0)                \
    X(dcacheMissRate, "dcache_miss_rate", "fraction",                         \
      "L1 data-cache miss rate", dcache_misses, dcache_accesses, 1.0)         \
    X(l2MissRate, "l2_miss_rate", "fraction", "L2 cache miss rate",           \
      l2_misses, l2_accesses, 1.0)

/**
 * End-of-run statistics, backed by a self-describing metrics registry
 * (cesp::StatGroup): every counter, derived ratio, and histogram of
 * the tables above is registered once with a unit and description,
 * which gives reports, JSON/CSV exports, merges, and whole-stats
 * comparisons a single source of truth. Each metric has a same-named
 * O(1) accessor into the registry's storage (`s.cycles()`).
 *
 * Per-cluster counters are registered only for the configured cluster
 * count, so reports and exports never show phantom always-zero
 * clusters.
 */
class SimStats
{
  public:
    explicit SimStats(int num_clusters = 1);

    std::string &config_name() { return group_.label(); }
    const std::string &config_name() const { return group_.label(); }

#define CESP_COUNTER_ACCESSORS(name, ...)                                     \
    uint64_t &name() { return group_.counterAt(k_##name); }                   \
    uint64_t name() const { return group_.counterAt(k_##name); }
    CESP_SIM_COUNTERS(CESP_COUNTER_ACCESSORS)
#undef CESP_COUNTER_ACCESSORS

#define CESP_HISTOGRAM_ACCESSORS(name, ...)                                   \
    Histogram &name() { return group_.histogramAt(k_##name); }                \
    const Histogram &name() const { return group_.histogramAt(k_##name); }
    CESP_SIM_HISTOGRAMS(CESP_HISTOGRAM_ACCESSORS)
#undef CESP_HISTOGRAM_ACCESSORS

#define CESP_DERIVED_ACCESSOR(accessor, ...)                                  \
    double accessor() const { return group_.derivedAt(k_##accessor); }
    CESP_SIM_DERIVED(CESP_DERIVED_ACCESSOR)
#undef CESP_DERIVED_ACCESSOR

    /** Clusters this run was configured with (registry rows exist
     *  only for these). */
    int numClusters() const { return num_clusters_; }

    /** Issue count of cluster @p c; c must be < numClusters(). */
    uint64_t &
    issued_per_cluster(int c)
    {
        return group_.counterAt(kNumScalarCounters +
                                static_cast<size_t>(c));
    }
    /** Issue count of cluster @p c (0 for unconfigured clusters). */
    uint64_t
    issued_per_cluster(int c) const
    {
        if (c < 0 || c >= num_clusters_)
            return 0;
        return group_.counterAt(kNumScalarCounters +
                                static_cast<size_t>(c));
    }

    /** The backing registry: export, merge, compare, visit. */
    StatGroup &group() { return group_; }
    const StatGroup &group() const { return group_; }

  private:
    // Per-kind storage indices, in registration order; per-cluster
    // issue counters follow the scalars at kNumScalarCounters + c.
#define CESP_STAT_ID(name, ...) k_##name,
    enum CounterId : size_t
    {
        CESP_SIM_COUNTERS(CESP_STAT_ID) kNumScalarCounters
    };
    enum HistogramId : size_t
    {
        CESP_SIM_HISTOGRAMS(CESP_STAT_ID)
    };
    enum DerivedId : size_t
    {
        CESP_SIM_DERIVED(CESP_STAT_ID)
    };
#undef CESP_STAT_ID

    int num_clusters_ = 1;
    StatGroup group_;
};

/**
 * One point of the statistics time series emitted by interval
 * sampling (RunLimits::sample_every): the registry state after every
 * N measured commits, both cumulative and as the change since the
 * previous snapshot.
 */
struct StatSnapshot
{
    uint64_t index = 0;     //!< 0-based interval number
    uint64_t committed = 0; //!< measured commits so far (cumulative)
    uint64_t cycles = 0;    //!< measured cycles so far (cumulative)
    /** Registry totals since the measurement boundary. */
    StatGroup cumulative;
    /** cumulative.deltaSince(previous snapshot); equals cumulative
     *  for the first interval. Exact: the previous cumulative merged
     *  with this delta equals this cumulative (the registry holds
     *  only counters and histograms). */
    StatGroup delta;
};

/**
 * Limits and observation hooks for one Pipeline::run. Named fields,
 * so knobs like the sampler compose without argument-order traps.
 */
struct RunLimits
{
    /** Simulate only the first this-many records of the trace
     *  (warmup included). */
    uint64_t max_instructions = UINT64_MAX;
    /**
     * Discard the measurement prefix: the machine state (branch
     * predictor, caches, rename map, in-flight instructions) warms
     * up normally, but when the warmup-th instruction commits the
     * statistics registry, which counts cycles and cache traffic too,
     * is reset (StatGroup::reset()), so the returned stats cover
     * only the instructions committed after the boundary. This is
     * the measurement contract trace sharding depends on
     * (core::run with shards): a shard simulates its warmup prefix
     * for state only and reports its measured window. With warmup 0
     * the behaviour (and every stat bit) is unchanged. If the run
     * drains before the warmup target commits, the measured region
     * is empty and every counter is zero.
     *
     * A measured window needs no cooldown suffix: commit is
     * in-order, so an instruction's commit cycle depends only on
     * itself and older instructions — appending records after the
     * window cannot change its cycle count (verified empirically
     * while tuning the sharded convergence suite). The only sharding
     * bias is cold machine state, which the warmup prefix addresses.
     */
    uint64_t warmup = 0;
    /** When > 0 (and a sampler is set), invoke the sampler with a
     *  StatSnapshot every this-many measured commits. Sampling only
     *  reads simulator state: final stats are bit-identical with
     *  sampling on or off. No snapshot is emitted for a trailing
     *  partial interval — the end-of-run stats cover it. */
    uint64_t sample_every = 0;
    /** Snapshot consumer; called synchronously on the simulating
     *  thread. */
    std::function<void(const StatSnapshot &)> sampler;
};

/** The timing simulator. */
class Pipeline
{
  public:
    /**
     * @param cfg machine configuration (validated here)
     * @param trace the records to simulate; their storage must
     *        outlive run()
     */
    Pipeline(const SimConfig &cfg, trace::TraceView trace);
    // A temporary buffer would die before run() reads it.
    Pipeline(const SimConfig &cfg, trace::TraceBuffer &&) = delete;
    // Steering holds pointers into this object.
    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /**
     * Simulate until the trace (cut to limits.max_instructions
     * records) ends and the machine drains. Returns the statistics;
     * see RunLimits for the warmup and sampling contracts.
     */
    SimStats run(const RunLimits &limits = {});

    const SimConfig &config() const { return cfg_; }

    /** Callback observing per-instruction pipeline events. */
    using InstObserver = std::function<void(const DynInst &)>;

    /** Observe every instruction as it is dispatched (post-steer). */
    void
    setDispatchObserver(InstObserver f)
    {
        on_dispatch_ = std::move(f);
    }

    /** Observe every instruction as it issues. */
    void
    setIssueObserver(InstObserver f)
    {
        on_issue_ = std::move(f);
    }

  private:
    // Members templated on the organization (see the file comment)
    // are defined and instantiated in pipeline.cpp.

    /** The cycle loop, compiled for organization @p S. */
    template <IssueBufferStyle S> void runLoop();
    void doCommit();
    template <IssueBufferStyle S> void doIssue();
    /** Reference per-cycle candidate scan. */
    template <IssueBufferStyle S> void doIssueScan();
    /** Event-driven issue (default). */
    template <IssueBufferStyle S> void doIssueEvent();
    template <IssueBufferStyle S> void doDispatch();
    void doFetch();

    /** Per-cycle functional unit occupancy. */
    struct FuUsage
    {
        int total[kMaxClusters] = {};
        int typed[kMaxClusters][3] = {}; //!< [cluster][fu class]
    };

    /** Unit class an op class executes on (0 alu, 1 mem, 2 branch). */
    static int fuClassOf(isa::OpClass cls);

    bool fuAvailable(int cluster, isa::OpClass cls,
                     const FuUsage &usage) const;
    void consumeFu(int cluster, isa::OpClass cls, FuUsage &usage);

    /** Scan path: issue @p inst if it is selectable this cycle. */
    template <IssueBufferStyle S>
    bool tryIssueOne(DynInst &inst, int &global_issued,
                     FuUsage &usage);
    /** Issue @p inst, which is buffered since an earlier cycle and
     *  (when its cluster is assigned) has its operands ready there,
     *  if a functional unit and, for a load, a cache port and store
     *  order allow. */
    template <IssueBufferStyle S>
    bool issueReady(DynInst &inst, int &global_issued, FuUsage &usage);
    bool srcsReady(const DynInst &inst, int cluster) const;
    template <IssueBufferStyle S> size_t bufferedCount() const;
    uint64_t srcReadyCycle(const DynInst &inst, int cluster) const;
    int chooseExecCluster(const DynInst &inst, isa::OpClass cls,
                          const FuUsage &usage) const;
    template <IssueBufferStyle S>
    void completeIssue(DynInst &inst, int cluster, int latency);
    template <IssueBufferStyle S> void removeFromBuffer(DynInst &inst);
    /** Access the L1 (and on a miss the L2, if any), count the
     *  traffic in the stats, and return the access latency. */
    int cacheAccess(uint32_t addr, bool is_store);
    int loadLatency(DynInst &inst);

    // Event-driven wakeup machinery (no-ops under LegacyScan).
    /** Register source waiters, or schedule the wakeup when every
     *  source is already scheduled. */
    template <IssueBufferStyle S> void wireDispatchEvents(DynInst &inst);
    /** Earliest cycle @p inst's sources are all ready in the best
     *  cluster. Serves execution-driven steering only, whose cluster
     *  stays unassigned until issue (an assigned cluster's wakeup
     *  cycle is DynInst::ready_at). Sources must all be scheduled. */
    uint64_t instReadyCycle(const DynInst &inst) const;
    /** Schedule @p inst's one wakeup, at max(sources-ready,
     *  now_ + 1), in the wheel. */
    template <IssueBufferStyle S> void scheduleReady(DynInst &inst);
    /** Move the wakeups due this cycle into the ready set. */
    void drainWakeups();
    /** Ready-bitmap bit of @p inst: its age slot, seq & age_mask_. */
    size_t readyBit(const DynInst &inst) const;
    /** Instruction owning ready-bitmap bit @p bit. */
    DynInst &readyInst(size_t bit);
    /** Remove bit @p bit, which is set, from the ready set. */
    void readyClear(size_t bit);

    /** Cross the warmup boundary: reset the stats registry at the
     *  current commit. */
    void beginMeasurement();

    /** Emit one interval snapshot (cumulative + delta) to the
     *  sampler. Reads state only; never perturbs the simulation. */
    void emitSnapshot();

    /** In-flight instruction @p seq (panics outside the ROB). */
    DynInst &rob(uint64_t seq);
    /** Ring slot of @p seq, whatever it holds. */
    DynInst &robSlot(uint64_t seq) { return rob_[seq & rob_mask_].inst; }
    size_t robSize() const { return rob_tail_ - rob_head_; }
    bool robFull() const;
    /** Fetched instructions awaiting dispatch. */
    size_t fetchQueueSize() const { return next_seq_ - rob_tail_; }

    SimConfig cfg_;
    trace::TraceView trace_; //!< record i is the instruction of seq i

    std::unique_ptr<bpred::BranchPredictor> bpred_;
    mem::Cache dcache_;
    std::unique_ptr<mem::Cache> l2_; //!< optional second level
    RenameState rename_;
    std::unique_ptr<FifoSet> fifos_;
    std::vector<IssueWindow> windows_;
    std::unique_ptr<Steering> steering_;
    StoreQueue stq_;

    /** A ring slot: two whole cache lines, so that on a line-aligned
     *  ring no instruction straddles a third (the packed 104-byte
     *  stride measured slower). The padding stays out of DynInst,
     *  which other code keeps arrays of. */
    struct RobSlot
    {
        DynInst inst;
        char pad[128 - sizeof(DynInst)];
    };
    /** Backing store of rob_, with a cache line of slack to align it
     *  by hand: an over-aligned allocation (alignas on RobSlot) grew
     *  peak RSS by 3% where each thread builds many short pipelines,
     *  and this plain one does not. */
    std::unique_ptr<std::byte[]> rob_storage_;
    /** Every instruction from fetch to commit: a power-of-two ring
     *  of at least max_inflight + fetch_queue slots, slot =
     *  seq & rob_mask_. Seqs [rob_head_, rob_tail_) are in flight
     *  (the ROB proper, at most max_inflight) and [rob_tail_,
     *  next_seq_) are fetched, awaiting dispatch (the fetch queue, at
     *  most fetch_queue). */
    RobSlot *rob_ = nullptr;
    uint64_t rob_mask_ = 0;
    /** ceilPow2(max_inflight) - 1. The in-flight seqs map one-to-one
     *  onto seq & age_mask_, which keys the ready bitmap, so select
     *  walks no more words than the ROB needs. */
    uint64_t age_mask_ = 0;
    uint64_t rob_head_ = 0;      //!< oldest in-flight seq
    uint64_t rob_tail_ = 0;      //!< next seq to dispatch
    uint64_t next_seq_ = 0;      //!< next seq to fetch
    bool trace_done_ = false;

    // Warmup measurement boundary (see run()).
    bool warmup_pending_ = false;
    uint64_t warmup_target_ = 0;

    // Interval sampling (see RunLimits). next_sample_ is the measured
    // commit count that triggers the next snapshot; the boundary
    // reset restarts the series.
    uint64_t sample_every_ = 0;
    uint64_t next_sample_ = 0;
    uint64_t sample_index_ = 0;
    bool have_sample_prev_ = false;
    StatGroup sample_prev_;
    std::function<void(const StatSnapshot &)> sampler_;

    uint64_t now_ = 0;
    uint64_t fetch_resume_ = 0;      //!< fetch stalled until this cycle
    uint64_t blocking_branch_ = kNoSeq; //!< unresolved mispredict

    /** Cycles from a result's completion to its readiness in a
     *  consuming cluster, [producing cluster][consuming cluster]:
     *  the extra wakeup/select stages plus the local-bypass or
     *  per-hop inter-cluster delay. Fixed by the configuration. */
    uint64_t ready_offset_[kMaxClusters][kMaxClusters] = {};

    int ls_ports_used_ = 0; //!< per-cycle cache-port counter
    bool fu_symmetric_ = true; //!< cfg_.fu_mix.symmetric()
    Rng select_rng_{0};     //!< for SelectPolicy::Random

    // Event-driven issue state.
    bool event_driven_ = false; //!< resolved issue model for this run
    /**
     * Buffered instructions with all sources ready, one bit each, at
     * their age slot (seq & age_mask_): oldest-first select is a walk
     * of them from the head's. Select iterates a word copy, so the set
     * it sees is the cycle-start snapshot: an issue clears only the
     * bit it visits and wakeups land at now_ + 1 or later.
     */
    std::vector<uint64_t> ready_bits_;
    /**
     * Pending wakeups: slot (cycle & wheel_mask_) holds, laid out like
     * ready_bits_, the bits of the instructions that become ready
     * that cycle, and drainWakeups ORs the slot into ready_bits_ when
     * the cycle comes. The span, wheel_mask_ + 1, is a power of two
     * beyond the farthest wakeup the configuration allows (see the
     * constructor).
     */
    std::vector<uint64_t> wheel_;
    uint64_t wheel_mask_ = 0;

    InstObserver on_dispatch_;
    InstObserver on_issue_;

    SimStats stats_;
};

/** Convenience: build, run with @p limits, and return statistics. */
SimStats simulate(const SimConfig &cfg, trace::TraceView trace,
                  const RunLimits &limits = {});

} // namespace cesp::uarch

#endif // CESP_UARCH_PIPELINE_HPP
