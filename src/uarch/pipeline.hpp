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
 * Ready instructions are discovered with an event calendar rather
 * than a per-cycle scan of the whole buffer (IssueModel::EventDriven,
 * the default): issuing an instruction schedules wakeup events for
 * its dependents at the exact cycle their operands become usable, the
 * select stage walks a ready bitmap in selection-priority order, and
 * provably idle cycle stretches are skipped in one jump. The
 * per-cycle scan survives as IssueModel::LegacyScan; the two are
 * cycle- and statistic-exact against each other (enforced by
 * tests/test_event_sched.cpp).
 *
 * The hot-path state is dense and, once a run warms up,
 * allocation-free: the ROB is a power-of-two ring indexed by
 * seq & mask, dispatch builds each DynInst directly in its ROB slot
 * from a fixed-capacity fetch ring, and consumers wait on a
 * producer's register through intrusive lists threaded through
 * their ROB slots.
 */

#ifndef CESP_UARCH_PIPELINE_HPP
#define CESP_UARCH_PIPELINE_HPP

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
#include "uarch/wakeup.hpp"
#include "uarch/window.hpp"

namespace cesp::uarch {

/**
 * End-of-run statistics, backed by a self-describing metrics registry
 * (cesp::StatGroup): every counter, derived ratio, and histogram is
 * registered once with a unit and description, which gives reports,
 * JSON/CSV exports, merges, and whole-stats comparisons a single
 * source of truth. The original field API survives as same-named thin
 * accessors (`s.cycles()` where `s.cycles` used to be), all O(1)
 * lookups into the registry's storage.
 *
 * Per-cluster counters are registered only for the configured cluster
 * count, so reports and exports never show phantom always-zero
 * clusters.
 */
class SimStats
{
  public:
    explicit SimStats(int num_clusters = 1);

    // --- thin accessors preserving the original field API ---
    std::string &config_name() { return group_.label(); }
    const std::string &config_name() const { return group_.label(); }

    uint64_t &cycles() { return group_.counterAt(kCycles); }
    uint64_t cycles() const { return group_.counterAt(kCycles); }
    uint64_t &fetched() { return group_.counterAt(kFetched); }
    uint64_t fetched() const { return group_.counterAt(kFetched); }
    uint64_t &dispatched() { return group_.counterAt(kDispatched); }
    uint64_t dispatched() const { return group_.counterAt(kDispatched); }
    uint64_t &issued() { return group_.counterAt(kIssued); }
    uint64_t issued() const { return group_.counterAt(kIssued); }
    uint64_t &committed() { return group_.counterAt(kCommitted); }
    uint64_t committed() const { return group_.counterAt(kCommitted); }

    uint64_t &cond_branches() { return group_.counterAt(kCondBranches); }
    uint64_t cond_branches() const
    {
        return group_.counterAt(kCondBranches);
    }
    uint64_t &mispredicts() { return group_.counterAt(kMispredicts); }
    uint64_t mispredicts() const
    {
        return group_.counterAt(kMispredicts);
    }

    uint64_t &loads() { return group_.counterAt(kLoads); }
    uint64_t loads() const { return group_.counterAt(kLoads); }
    uint64_t &stores() { return group_.counterAt(kStores); }
    uint64_t stores() const { return group_.counterAt(kStores); }
    uint64_t &store_forwards()
    {
        return group_.counterAt(kStoreForwards);
    }
    uint64_t store_forwards() const
    {
        return group_.counterAt(kStoreForwards);
    }
    uint64_t &dcache_accesses()
    {
        return group_.counterAt(kDcacheAccesses);
    }
    uint64_t dcache_accesses() const
    {
        return group_.counterAt(kDcacheAccesses);
    }
    uint64_t &dcache_misses()
    {
        return group_.counterAt(kDcacheMisses);
    }
    uint64_t dcache_misses() const
    {
        return group_.counterAt(kDcacheMisses);
    }
    uint64_t &l2_accesses() { return group_.counterAt(kL2Accesses); }
    uint64_t l2_accesses() const
    {
        return group_.counterAt(kL2Accesses);
    }
    uint64_t &l2_misses() { return group_.counterAt(kL2Misses); }
    uint64_t l2_misses() const { return group_.counterAt(kL2Misses); }

    /** Committed instructions that used an inter-cluster bypass. */
    uint64_t &intercluster_bypasses()
    {
        return group_.counterAt(kInterclusterBypasses);
    }
    uint64_t intercluster_bypasses() const
    {
        return group_.counterAt(kInterclusterBypasses);
    }

    /** Section 5.1 steering-case counters (FIFO organizations). */
    uint64_t &steer_new_fifo() { return group_.counterAt(kSteerNew); }
    uint64_t steer_new_fifo() const
    {
        return group_.counterAt(kSteerNew);
    }
    uint64_t &steer_chain_left()
    {
        return group_.counterAt(kSteerLeft);
    }
    uint64_t steer_chain_left() const
    {
        return group_.counterAt(kSteerLeft);
    }
    uint64_t &steer_chain_right()
    {
        return group_.counterAt(kSteerRight);
    }
    uint64_t steer_chain_right() const
    {
        return group_.counterAt(kSteerRight);
    }

    uint64_t &dispatch_stall_buffer() //!< window/FIFO full cycles
    {
        return group_.counterAt(kStallBuffer);
    }
    uint64_t dispatch_stall_buffer() const
    {
        return group_.counterAt(kStallBuffer);
    }
    uint64_t &dispatch_stall_regs() //!< no free physical register
    {
        return group_.counterAt(kStallRegs);
    }
    uint64_t dispatch_stall_regs() const
    {
        return group_.counterAt(kStallRegs);
    }
    uint64_t &dispatch_stall_rob() //!< in-flight limit reached
    {
        return group_.counterAt(kStallRob);
    }
    uint64_t dispatch_stall_rob() const
    {
        return group_.counterAt(kStallRob);
    }

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

    /** Per-cycle occupancy of the issue buffering (window/FIFOs). */
    Histogram &buffer_occupancy()
    {
        return group_.histogramAt(kOccupancyHist);
    }
    const Histogram &buffer_occupancy() const
    {
        return group_.histogramAt(kOccupancyHist);
    }
    /** Instructions issued per cycle. */
    Histogram &issue_sizes()
    {
        return group_.histogramAt(kIssueSizeHist);
    }
    const Histogram &issue_sizes() const
    {
        return group_.histogramAt(kIssueSizeHist);
    }

    double ipc() const { return group_.derivedAt(kIpc); }
    double mispredictRate() const
    {
        return group_.derivedAt(kMispredictRate);
    }
    /** Section 5.6.4 metric, in percent of committed instructions. */
    double interClusterPct() const
    {
        return group_.derivedAt(kInterClusterPct);
    }
    double dcacheMissRate() const
    {
        return group_.derivedAt(kDcacheMissRate);
    }

    /** The backing registry: export, merge, compare, visit. */
    StatGroup &group() { return group_; }
    const StatGroup &group() const { return group_; }

  private:
    /** Storage indices of the scalar counters, in registration
     *  order; per-cluster issue counters follow at
     *  kNumScalarCounters + c. */
    enum ScalarCounter : size_t
    {
        kCycles,
        kFetched,
        kDispatched,
        kIssued,
        kCommitted,
        kCondBranches,
        kMispredicts,
        kLoads,
        kStores,
        kStoreForwards,
        kDcacheAccesses,
        kDcacheMisses,
        kL2Accesses,
        kL2Misses,
        kInterclusterBypasses,
        kSteerNew,
        kSteerLeft,
        kSteerRight,
        kStallBuffer,
        kStallRegs,
        kStallRob,
        kNumScalarCounters,
    };
    enum DerivedId : size_t
    {
        kIpc,
        kMispredictRate,
        kInterClusterPct,
        kDcacheMissRate,
        kL2MissRate,
    };
    enum HistId : size_t
    {
        kOccupancyHist,
        kIssueSizeHist,
    };

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
    /** Registry totals since the measurement boundary, with cycle
     *  and cache counters rebased exactly as at end of run. */
    StatGroup cumulative;
    /** cumulative.deltaSince(previous snapshot); equals cumulative
     *  for the first interval. Sample min/max stay cumulative (see
     *  StatGroup::deltaSince). */
    StatGroup delta;
};

/**
 * Limits and observation hooks for one Pipeline::run. Replaces the
 * old positional (max_instructions, warmup_instructions) signature
 * so new knobs — like the sampler — compose without argument-order
 * traps.
 */
struct RunLimits
{
    /** Stop fetching after this many instructions (warmup included). */
    uint64_t max_instructions = UINT64_MAX;
    /**
     * Discard the measurement prefix: the machine state (branch
     * predictor, caches, rename map, in-flight instructions) warms
     * up normally, but when the warmup-th instruction commits the
     * statistics registry is reset (StatGroup::reset()) and
     * cycle/cache accounting rebases, so the returned stats cover
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
     * @param src trace source; rewound at the start of run()
     */
    Pipeline(const SimConfig &cfg, trace::TraceSource &src);
    // Steering and the ROB lookup hold pointers into this object.
    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /**
     * Simulate until the trace ends (or limits.max_instructions have
     * been fetched) and the machine drains. Returns the statistics;
     * see RunLimits for the warmup and sampling contracts.
     */
    SimStats run(const RunLimits &limits);
    /** Run to completion with default limits. */
    SimStats run() { return run(RunLimits{}); }
    [[deprecated("use run(const RunLimits&)")]]
    SimStats run(uint64_t max_instructions,
                 uint64_t warmup_instructions = 0);

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
    void doCommit();
    void doIssue();
    void doIssueScan();  //!< reference per-cycle candidate scan
    void doIssueEvent(); //!< event-calendar issue (default)
    void doDispatch();
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

    bool tryIssueOne(DynInst &inst, int &global_issued,
                     FuUsage &usage);
    bool srcsReady(const DynInst &inst, int cluster) const;
    size_t bufferedCount() const;
    uint64_t srcReadyCycle(const DynInst &inst, int cluster) const;
    int chooseExecCluster(const DynInst &inst, isa::OpClass cls,
                          const FuUsage &usage) const;
    /** Result-forwarding hops from cluster @p from to @p to. */
    int bypassHops(int from, int to) const;
    void completeIssue(DynInst &inst, int cluster, int latency);
    void removeFromBuffer(DynInst &inst);
    int loadLatency(DynInst &inst);

    // Event-driven wakeup machinery (no-ops under LegacyScan).
    /** Register source waiters / schedule the first wakeup event. */
    void wireDispatchEvents(DynInst &inst);
    /** Earliest cycle @p inst's sources are all ready (its cluster,
     *  or the best cluster when unassigned). Sources must all be
     *  scheduled. */
    uint64_t instReadyCycle(const DynInst &inst) const;
    /** Push a wakeup event at max(sources-ready, @p earliest). */
    void scheduleReady(DynInst &inst, uint64_t earliest);
    /** Move fired events into the ready set. */
    void drainWakeups();
    /** Ready-bitmap bit of @p inst: its window slot for slot-priority
     *  windows, else its ROB slot. */
    size_t readyBit(const DynInst &inst) const;
    /** Instruction owning ready-bitmap bit @p bit. */
    DynInst &readyInst(size_t bit);
    void readySet(size_t bit);
    void readyClear(size_t bit);
    /** Jump over cycles that provably perform no work. */
    void maybeSkipIdle();

    /** Cross the warmup boundary: reset the stats registry and
     *  rebase cycle and cache accounting at the current commit. */
    void beginMeasurement();

    /** Emit one interval snapshot (cumulative + delta) to the
     *  sampler. Reads state only; never perturbs the simulation. */
    void emitSnapshot();

    DynInst &rob(uint64_t seq);
    const DynInst &rob(uint64_t seq) const;
    size_t robSize() const { return rob_tail_ - rob_head_; }
    bool robFull() const;

    SimConfig cfg_;
    trace::TraceSource &src_;

    std::unique_ptr<bpred::BranchPredictor> bpred_;
    mem::Cache dcache_;
    std::unique_ptr<mem::Cache> l2_; //!< optional second level
    RenameState rename_;
    std::unique_ptr<FifoSet> fifos_;
    std::vector<IssueWindow> windows_;
    std::unique_ptr<Steering> steering_;
    StoreQueue stq_;

    /** In-flight instructions: a power-of-two ring of at least
     *  max_inflight slots, slot = seq & rob_mask_. Only slots in
     *  [rob_head_, rob_tail_) hold live instructions; dispatch builds
     *  the next one in the tail slot. */
    std::vector<DynInst> rob_;
    uint64_t rob_mask_ = 0;
    uint64_t rob_head_ = 0;      //!< oldest in-flight seq
    uint64_t rob_tail_ = 0;      //!< next seq to dispatch
    /** Steering's view of the ROB, built once. */
    RobLookup rob_lookup_;

    /** A fetched instruction awaiting rename. */
    struct FetchEntry
    {
        trace::TraceOp op;
        uint64_t seq = kNoSeq;
        uint64_t frontend_exit = 0; //!< earliest rename cycle
        bool mispredicted = false;  //!< conditional branch, wrong way
    };
    /** Fetched, awaiting rename: seqs [rob_tail_, next_seq_), at most
     *  cfg.fetch_queue of them. */
    Ring<FetchEntry> fetch_q_;
    uint64_t next_seq_ = 0;
    bool trace_done_ = false;

    // Warmup measurement boundary (see run()). fetched_total_ counts
    // every fetched instruction across the whole run — the registry's
    // "fetched" counter rebases at the boundary, but the
    // max_instructions bound must not.
    bool warmup_pending_ = false;
    uint64_t warmup_target_ = 0;
    uint64_t measure_start_cycle_ = 0;
    uint64_t fetched_total_ = 0;
    uint64_t dcache_acc_base_ = 0, dcache_miss_base_ = 0;
    uint64_t l2_acc_base_ = 0, l2_miss_base_ = 0;

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

    int ls_ports_used_ = 0; //!< per-cycle cache-port counter
    Rng select_rng_{0};     //!< for SelectPolicy::Random

    // Event-driven issue state.
    bool event_driven_ = false; //!< resolved issue model for this run
    bool slot_keyed_ = false;   //!< ready set ordered by window slot
    /** Wakeup events of every cluster: each carries its cluster's
     *  operand-ready cycle, and all feed the one ready bitmap. */
    WakeupCalendar calendar_;
    /**
     * Buffered instructions with all sources ready, one bit each. A
     * slot-priority central window selects by window slot, so its
     * bits are window slots; every other organization selects by age,
     * so its bits are ROB slots and oldest-first is a walk of the ring
     * from the head slot. Select iterates a word copy, so the set it
     * sees is the cycle-start snapshot: an issue clears only the bit
     * it visits and wakeups land at now_ + 1.
     */
    std::vector<uint64_t> ready_bits_;
    size_t ready_count_ = 0; //!< bits set in ready_bits_

    InstObserver on_dispatch_;
    InstObserver on_issue_;

    SimStats stats_;
};

/** Convenience: build, run, and return statistics. */
SimStats simulate(const SimConfig &cfg, trace::TraceSource &src,
                  uint64_t max_instructions = UINT64_MAX,
                  uint64_t warmup_instructions = 0);

/** Convenience: build, run with @p limits, and return statistics. */
SimStats simulate(const SimConfig &cfg, trace::TraceSource &src,
                  const RunLimits &limits);

} // namespace cesp::uarch

#endif // CESP_UARCH_PIPELINE_HPP
