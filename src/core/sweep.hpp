/**
 * @file
 * The run entrypoint: simulate many (configuration, trace) pairs
 * across a pool of worker threads, optionally sharding each trace
 * into warmed-up windows. Design-space exploration is embarrassingly
 * parallel — every (configuration, trace) pair is an independent
 * simulation — so every harness hands its task list to core::run:
 * cesp-sim builds its machines x traces grid by hand, and the paper
 * figures, ablations and studies (bench/experiments) and the Section
 * 5.5 study describe theirs as a configurations x workloads Grid
 * (runGrid), which simulates each distinct machine once however many
 * configurations name it.
 *
 * Determinism: results are indexed by task position and each
 * simulation is a pure function of its (config, trace) pair, so the
 * output is bit-identical for any thread count, including 1. The
 * simulator holds no mutable global state (verified by the
 * tsan-labeled sweep test); the one process-wide cache in the
 * library, core::cachedWorkloadTraceView, initialises each entry
 * exactly once and may be called from any thread.
 */

#ifndef CESP_CORE_SWEEP_HPP
#define CESP_CORE_SWEEP_HPP

#include <functional>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "uarch/config.hpp"
#include "uarch/pipeline.hpp"

namespace cesp::core {

/** One simulation in a sweep. The trace is shared, not owned, and
 *  must outlive the core::run call; any number of workers read it
 *  concurrently. A TraceView converts implicitly from a TraceBuffer
 *  and from an MmapTraceSource, so tasks can mix buffer-backed and
 *  mmap-backed traces freely. warmup discards the stats of the
 *  leading instructions (see Pipeline::run): the machine state warms
 *  up over them, measurement starts when the warmup-th commits. */
struct SweepTask
{
    uarch::SimConfig cfg;
    trace::TraceView trace;
    uint64_t warmup = 0;
};

/** Worker count used when jobs == 0: the CPUs in the calling
 *  thread's affinity mask, capped by the hardware concurrency, and at
 *  least 1. */
unsigned defaultJobs();

/**
 * Options for core::run. Defaults reproduce a plain parallel sweep;
 * shards/warmup select sharded execution, and the callbacks stream
 * results out as workers finish.
 */
struct RunOptions
{
    /** Workers, the calling thread counted: 0 = defaultJobs(),
     *  1 = inline on the caller (no thread is spawned). */
    unsigned jobs = 0;
    /**
     * Split every task's trace into this many contiguous measured
     * windows (see planShards), simulated as independent shards on
     * the pool and merged per task. Values <= 1 combined with
     * warmup == 0 run each task monolithically.
     *
     * The sharding measurement contract:
     *  - The merged group's derived IPC is total committed over
     *    total (summed) shard cycles — the sampled-simulation
     *    estimate of the monolithic IPC. The accuracy gap shrinks as
     *    warmup grows (see the test_shard convergence suite and
     *    perfbench's core.shard_ipc_err_pct).
     *  - Merged committed is exact for any shards and warmup: the
     *    measured windows partition the trace. Warmup records are
     *    simulated by two shards but only ever measured by one.
     *  - With shards == 1 and warmup == 0 the single shard is the
     *    whole trace, and its stats are bit-identical
     *    (StatGroup::sameValues) to a monolithic uarch::simulate of
     *    the same pair.
     */
    unsigned shards = 1;
    /** Per-shard state-warming prefix, in trace records. Applies
     *  only to sharded execution (shards > 1 or warmup > 0), where it
     *  overrides any SweepTask::warmup. Unsharded runs honour the
     *  per-task warmup instead. */
    uint64_t warmup = 0;
    /** Emit a StatSnapshot every this-many measured commits of each
     *  simulation (0 = off; requires on_snapshot). */
    uint64_t sample_every = 0;

    // Completion callbacks. All of them run on whichever worker
    // finished the work, the calling thread or a spawned one, in
    // completion order, and therefore must be thread-safe; the
    // task/shard indices carried by each call — not arrival order —
    // identify the result. A callback that throws aborts the run
    // like a simulation failure: first exception wins, no worker
    // starts another simulation, and core::run rethrows on the
    // caller.

    /** One task finished: its merged (sharded) or whole-run group,
     *  labelled with the task's configuration name. */
    std::function<void(size_t task, const StatGroup &stats)> on_result;
    /** One simulation finished: the task's only run (shard == 0 when
     *  unsharded) or one measured shard window. */
    std::function<void(size_t task, size_t shard,
                       const uarch::SimStats &stats)>
        on_shard;
    /** One interval snapshot (see uarch::StatSnapshot). */
    std::function<void(size_t task, size_t shard,
                       const uarch::StatSnapshot &snap)>
        on_snapshot;

    /** When false, RunResult comes back empty and results exist only
     *  as callback invocations — the O(1)-memory mode that lets a
     *  million-point sweep stream to disk. (A sharded task buffers
     *  its finished shards' stats only from its first finished shard
     *  until it merges.) */
    bool collect_results = true;
};

/** What core::run produced (empty when !RunOptions::collect_results). */
struct RunResult
{
    /** Every simulation in plan order: one entry per task when
     *  unsharded, the flattened task-major shard windows when
     *  sharded. */
    std::vector<uarch::SimStats> stats;
    /** One group per task, in task order, labelled with the task's
     *  configuration name: the run's own stats, or the mergedStats
     *  of its shards. */
    std::vector<StatGroup> groups;
};

/**
 * Simulate every task and return the statistics in task order — the
 * one run entrypoint. The calling thread and min(jobs, plan size) - 1
 * spawned threads claim plan positions in order from one shared
 * cursor, so a worker that finishes early takes the next unclaimed
 * item and uneven task lengths (a 16-way machine next to a 2-way
 * one) still load-balance. Results are deterministic (bit-identical)
 * for any jobs count.
 *
 * Every task becomes a shard plan — with shards > 1 or warmup > 0
 * its trace is split via planShards, otherwise it is one shard of
 * the whole trace — and the whole expansion runs as one flat list on
 * the pool (shards of different tasks load-balance against each
 * other), then merges per task in shard order — see
 * RunOptions::shards for the measurement contract.
 *
 * If a simulation (or callback) throws, the first exception is
 * captured, no worker claims another task, all workers join, and the
 * exception is rethrown on the calling thread — a worker-side throw
 * never reaches std::terminate.
 */
RunResult run(const std::vector<SweepTask> &tasks,
              const RunOptions &options = {});

/**
 * The results of a configurations x workloads experiment — the shape
 * of every paper figure and ablation. Runs are stored config-major.
 */
struct Grid
{
    std::vector<uarch::SimConfig> configs;
    std::vector<std::string> workloads;
    /** Every run in task order: configs[c] on workloads[w] is
     *  stats[c * workloads.size() + w]. */
    std::vector<uarch::SimStats> stats;

    const uarch::SimStats &
    at(size_t config, size_t workload) const
    {
        return stats[config * workloads.size() + workload];
    }

    /** mergedStats of configs[config]'s runs over every workload; its
     *  derived "ipc" is the instruction-weighted mean IPC (total
     *  committed over total cycles). */
    StatGroup merged(size_t config) const;
};

/**
 * Simulate every configuration on every named workload (traces from
 * cachedWorkloadTraceView) as one core::run with default options.
 * Configurations equal in every field but `name` (SimConfig's
 * operator==) are one machine: each distinct (machine, workload)
 * pair simulates once, and every configuration's entries are copies
 * of its machine's runs that carry its own name
 * (SimStats::config_name()). The Grid holds one entry per
 * (configuration, workload), config-major. It takes no RunOptions:
 * sharding would make run(...).stats the flattened shard windows, so
 * Grid::at would read the wrong run.
 */
Grid runGrid(std::vector<uarch::SimConfig> configs,
             std::vector<std::string> workloads);

/**
 * Merge per-run statistics into one aggregate StatGroup: counters,
 * gauges and histograms add, derived metrics recompute
 * over the merged operands. All results must share a schema (same
 * machine organization, in particular the same cluster count);
 * mismatches are fatal. Empty input yields a default-constructed
 * single-cluster group with every counter zero.
 *
 * Because counter merge is integer addition, the merge of N
 * per-worker groups is exactly the single-threaded accumulation —
 * the property the metrics test suite checks across core::run worker
 * counts.
 */
StatGroup mergedStats(const std::vector<uarch::SimStats> &results);

/**
 * One window of a sharded trace run. The shard simulates records
 * [begin, end) of the trace; the first `warmup` of them only warm
 * the machine state (their stats are discarded), so the measured
 * window is [begin + warmup, end).
 *
 * No cooldown suffix follows the window: commit is in-order, so a
 * measured instruction's commit cycle depends only on itself and
 * older instructions — simulating records past `end` could not
 * change the measured cycle count (verified empirically while
 * tuning the convergence suite). The only sharding bias is cold
 * machine state at `begin`, which the warmup prefix addresses.
 */
struct ShardSpec
{
    size_t begin;    //!< first record simulated (start of warmup)
    size_t end;      //!< one past the last record simulated
    uint64_t warmup; //!< leading records excluded from the stats
};

/**
 * Split a trace of @p record_count records into @p shards contiguous
 * measured windows (sizes differ by at most one record, in order, no
 * gaps or overlap), each preceded by up to @p warmup records of
 * state-warming prefix drawn from the records just before the
 * window. Shard 0 has no prefix (nothing precedes it) and windows
 * near the start get what is available — warmup is clamped, never an
 * error. Degenerate inputs clamp deterministically: shards == 0
 * plans like 1; more shards than records plans one shard per record;
 * an empty trace plans a single empty shard.
 */
std::vector<ShardSpec> planShards(size_t record_count,
                                  unsigned shards, uint64_t warmup);

namespace detail {

/**
 * Test-only fault injection: when non-null, called with each task's
 * index just before that task simulates (on the worker thread that
 * runs it). The exception-propagation tests use this to make a
 * specific task throw; production code leaves it null.
 */
extern void (*sweep_task_hook)(size_t task_index);

} // namespace detail

} // namespace cesp::core

#endif // CESP_CORE_SWEEP_HPP
