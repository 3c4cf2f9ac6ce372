/**
 * @file
 * Work-stealing implementation of core::run.
 */

#include "core/sweep.hpp"

#include <atomic>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.hpp"
#include "core/machine.hpp"

namespace cesp::core {

namespace {

/**
 * A worker's task deque. The owner pops from the front (its
 * round-robin share, in task order); thieves pop from the back, so
 * owner and thieves contend on opposite ends and the owner keeps the
 * cache-warm early tasks. A plain mutex per deque is enough here:
 * tasks are whole simulations (milliseconds to seconds), so queue
 * operations are nowhere near the critical path.
 */
struct WorkerQueue
{
    std::mutex mu;
    std::deque<size_t> tasks;

    bool
    popOwn(size_t &out)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (tasks.empty())
            return false;
        out = tasks.front();
        tasks.pop_front();
        return true;
    }

    bool
    steal(size_t &out)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (tasks.empty())
            return false;
        out = tasks.back();
        tasks.pop_back();
        return true;
    }
};

/** Internal observation hooks threaded through the worker pool. */
struct PoolHooks
{
    /** Called after a task's stats are final (inside the worker's
     *  try: a throwing hook aborts the run like a failing task). */
    std::function<void(size_t, const uarch::SimStats &)> on_done;
    uint64_t sample_every = 0;
    std::function<void(size_t, const uarch::StatSnapshot &)>
        on_snapshot;
};

void
runTask(const SweepTask &t, size_t index, uarch::SimStats &out,
        const PoolHooks &hooks)
{
    if (detail::sweep_task_hook)
        detail::sweep_task_hook(index);
    trace::TraceCursor cursor(t.trace);
    uarch::RunLimits limits;
    limits.warmup = t.warmup;
    if (hooks.sample_every && hooks.on_snapshot) {
        limits.sample_every = hooks.sample_every;
        limits.sampler = [&](const uarch::StatSnapshot &s) {
            hooks.on_snapshot(index, s);
        };
    }
    out = uarch::simulate(t.cfg, cursor, limits);
}

/**
 * The work-stealing pool all run modes share. Results land in
 * @p results by task index; a null @p results discards each task's
 * stats after on_done sees them (the streaming O(1)-memory mode).
 */
void
runPool(const std::vector<SweepTask> &tasks, unsigned jobs,
        std::vector<uarch::SimStats> *results, const PoolHooks &hooks)
{
    for (const SweepTask &t : tasks) {
        if (!t.trace.records && t.trace.count)
            panic("core::run: task with null trace");
        t.cfg.validate();
    }

    if (results)
        results->resize(tasks.size());
    if (jobs == 0)
        jobs = defaultJobs();
    if (jobs > tasks.size())
        jobs = static_cast<unsigned>(tasks.size());

    auto runOne = [&](size_t idx) {
        uarch::SimStats local;
        uarch::SimStats &slot = results ? (*results)[idx] : local;
        runTask(tasks[idx], idx, slot, hooks);
        if (hooks.on_done)
            hooks.on_done(idx, slot);
    };

    if (jobs <= 1) {
        for (size_t i = 0; i < tasks.size(); ++i)
            runOne(i);
        return;
    }

    // All work is known up front, so the deques are filled before any
    // worker starts and never refilled: a worker that finds every
    // deque empty is done. Round-robin seeding spreads neighboring
    // (similar-cost) tasks across workers.
    std::vector<std::unique_ptr<WorkerQueue>> queues;
    queues.reserve(jobs);
    for (unsigned w = 0; w < jobs; ++w)
        queues.push_back(std::make_unique<WorkerQueue>());
    for (size_t i = 0; i < tasks.size(); ++i)
        queues[i % jobs]->tasks.push_back(i);

    // A throw inside a worker must not unwind off the thread (that
    // is std::terminate): the first exception is captured, every
    // worker keeps draining its deques without simulating — so the
    // pool winds down promptly instead of finishing hours of doomed
    // work — and the caller rethrows after the join.
    std::atomic<bool> failed{false};
    std::mutex err_mu;
    std::exception_ptr first_error;

    auto worker = [&](unsigned self) {
        auto run = [&](size_t idx) {
            if (failed.load(std::memory_order_relaxed))
                return;
            try {
                runOne(idx);
            } catch (...) {
                std::lock_guard<std::mutex> lock(err_mu);
                if (!first_error)
                    first_error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        };
        size_t idx;
        for (;;) {
            if (queues[self]->popOwn(idx)) {
                run(idx);
                continue;
            }
            bool stole = false;
            for (unsigned off = 1; off < jobs && !stole; ++off)
                stole = queues[(self + off) % jobs]->steal(idx);
            if (!stole)
                return;
            run(idx);
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned w = 0; w < jobs; ++w)
        pool.emplace_back(worker, w);
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace

namespace detail {

void (*sweep_task_hook)(size_t task_index) = nullptr;

} // namespace detail

unsigned
defaultJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

StatGroup
Grid::merged(size_t config) const
{
    auto first = stats.begin() +
        static_cast<ptrdiff_t>(config * workloads.size());
    return mergedStats(
        {first, first + static_cast<ptrdiff_t>(workloads.size())});
}

Grid
runGrid(std::vector<uarch::SimConfig> configs,
        std::vector<std::string> workloads, const RunOptions &options)
{
    Grid g{std::move(configs), std::move(workloads), {}};
    std::vector<SweepTask> tasks;
    tasks.reserve(g.configs.size() * g.workloads.size());
    for (const uarch::SimConfig &cfg : g.configs)
        for (const std::string &w : g.workloads)
            tasks.push_back({cfg, cachedWorkloadTraceView(w)});
    g.stats = std::move(run(tasks, options).stats);
    return g;
}

RunResult
run(const std::vector<SweepTask> &tasks, const RunOptions &opt)
{
    RunResult r;
    const bool sharded = opt.shards > 1 || opt.warmup > 0;
    PoolHooks hooks;
    hooks.sample_every = opt.sample_every;

    if (!sharded) {
        if (opt.on_snapshot)
            hooks.on_snapshot = [&](size_t task,
                                    const uarch::StatSnapshot &s) {
                opt.on_snapshot(task, 0, s);
            };
        if (opt.on_result || opt.on_shard)
            hooks.on_done = [&](size_t task,
                                const uarch::SimStats &s) {
                if (opt.on_shard)
                    opt.on_shard(task, 0, s);
                if (opt.on_result) {
                    StatGroup g = s.group();
                    g.label() = tasks[task].cfg.name;
                    opt.on_result(task, g);
                }
            };
        runPool(tasks, opt.jobs,
                opt.collect_results ? &r.stats : nullptr, hooks);
        if (opt.collect_results) {
            r.groups.reserve(tasks.size());
            for (size_t i = 0; i < tasks.size(); ++i) {
                r.groups.push_back(r.stats[i].group());
                r.groups.back().label() = tasks[i].cfg.name;
            }
        }
        return r;
    }

    // Sharded: expand every task via planShards into one flat list so
    // shards of different tasks load-balance against each other.
    struct FlatRef
    {
        size_t task;
        size_t shard;
    };
    std::vector<SweepTask> flat;
    std::vector<FlatRef> ref;
    std::vector<size_t> first(tasks.size() + 1, 0);
    for (size_t p = 0; p < tasks.size(); ++p) {
        std::vector<ShardSpec> plan =
            planShards(tasks[p].trace.count, opt.shards, opt.warmup);
        for (size_t s = 0; s < plan.size(); ++s) {
            flat.push_back({tasks[p].cfg,
                            tasks[p].trace.slice(
                                plan[s].begin,
                                plan[s].end - plan[s].begin),
                            plan[s].warmup});
            ref.push_back({p, s});
        }
        first[p + 1] = flat.size();
    }

    if (opt.collect_results)
        r.groups.assign(tasks.size(), StatGroup());
    // In streaming mode each task's in-flight shard stats live in a
    // per-task buffer released as soon as the task merges.
    std::vector<std::vector<uarch::SimStats>> shard_buf;
    if (!opt.collect_results) {
        shard_buf.resize(tasks.size());
        for (size_t p = 0; p < tasks.size(); ++p)
            shard_buf[p].resize(first[p + 1] - first[p]);
    }
    std::vector<std::atomic<size_t>> remaining(tasks.size());
    for (size_t p = 0; p < tasks.size(); ++p)
        remaining[p].store(first[p + 1] - first[p],
                           std::memory_order_relaxed);

    if (opt.on_snapshot)
        hooks.on_snapshot = [&](size_t flat_idx,
                                const uarch::StatSnapshot &s) {
            opt.on_snapshot(ref[flat_idx].task, ref[flat_idx].shard,
                            s);
        };
    hooks.on_done = [&](size_t flat_idx, const uarch::SimStats &s) {
        const FlatRef &fr = ref[flat_idx];
        if (opt.on_shard)
            opt.on_shard(fr.task, fr.shard, s);
        if (!opt.collect_results)
            shard_buf[fr.task][fr.shard] = s;
        // acq_rel: the worker that decrements to zero must observe
        // every other worker's writes to this task's shard slots.
        if (remaining[fr.task].fetch_sub(
                1, std::memory_order_acq_rel) != 1)
            return;
        StatGroup g;
        if (opt.collect_results) {
            std::vector<uarch::SimStats> slice(
                r.stats.begin() +
                    static_cast<ptrdiff_t>(first[fr.task]),
                r.stats.begin() +
                    static_cast<ptrdiff_t>(first[fr.task + 1]));
            g = mergedStats(slice);
        } else {
            g = mergedStats(shard_buf[fr.task]);
            std::vector<uarch::SimStats>().swap(shard_buf[fr.task]);
        }
        g.label() = tasks[fr.task].cfg.name;
        if (opt.on_result)
            opt.on_result(fr.task, g);
        if (opt.collect_results)
            r.groups[fr.task] = std::move(g);
    };

    runPool(flat, opt.jobs, opt.collect_results ? &r.stats : nullptr,
            hooks);
    return r;
}

StatGroup
mergedStats(const std::vector<uarch::SimStats> &results)
{
    if (results.empty())
        return uarch::SimStats().group();
    StatGroup merged = results.front().group();
    merged.label() = "merged over " +
                     std::to_string(results.size()) + " runs";
    for (size_t i = 1; i < results.size(); ++i)
        merged.merge(results[i].group());
    return merged;
}

std::vector<ShardSpec>
planShards(size_t record_count, unsigned shards, uint64_t warmup)
{
    size_t k = shards ? shards : 1;
    if (record_count && k > record_count)
        k = record_count;
    if (!record_count)
        k = 1;

    // Even contiguous split without multiplication overflow: the
    // first (count % k) windows get one extra record.
    size_t base = record_count / k;
    size_t extra = record_count % k;

    std::vector<ShardSpec> plan;
    plan.reserve(k);
    size_t begin = 0;
    for (size_t i = 0; i < k; ++i) {
        size_t len = base + (i < extra ? 1 : 0);
        size_t end = begin + len;
        size_t w = static_cast<size_t>(
            warmup < begin ? warmup : begin);
        plan.push_back({begin - w, end, w});
        begin = end;
    }
    return plan;
}

} // namespace cesp::core
