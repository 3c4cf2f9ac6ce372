/**
 * @file
 * core::run: every task expands into its shard plan, and the plan
 * runs on a pool whose workers (the caller among them) claim plan
 * positions in order from one shared cursor.
 */

#include "core/sweep.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "common/logging.hpp"
#include "core/machine.hpp"

namespace cesp::core {

namespace {

/**
 * The pool: call @p runOne(i) once for every i in [0, count), on the
 * calling thread and min(jobs, count) - 1 spawned threads (none when
 * jobs == 1, so the caller runs every item in order). The whole plan
 * is known before any worker starts and every item is a whole
 * simulation (milliseconds to seconds), so one shared cursor balances
 * uneven items as well as per-worker queues would: each worker claims
 * the next unclaimed position until the cursor passes the end.
 */
void
runPool(size_t count, unsigned jobs,
        const std::function<void(size_t)> &runOne)
{
    if (jobs == 0)
        jobs = defaultJobs();
    std::atomic<size_t> next{0};

    // A throw inside a worker must not unwind off the thread (that
    // is std::terminate): the first exception is captured and moves
    // the cursor to the end, so no worker claims another item —
    // the pool winds down promptly instead of finishing hours of
    // doomed work — and the caller rethrows after the join.
    std::mutex err_mu;
    std::exception_ptr first_error;

    auto worker = [&] {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            try {
                runOne(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(err_mu);
                if (!first_error)
                    first_error = std::current_exception();
                next.store(count, std::memory_order_relaxed);
            }
        }
    };

    std::vector<std::thread> pool;
    for (size_t w = 1; w < std::min<size_t>(jobs, count); ++w)
        pool.emplace_back(worker);
    worker();
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
    cpu_set_t set;
    CPU_ZERO(&set);
    unsigned n = 0;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        n = static_cast<unsigned>(CPU_COUNT(&set));
    unsigned hw = std::thread::hardware_concurrency();
    if (n == 0 || (hw != 0 && hw < n))
        n = hw;
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
        std::vector<std::string> workloads)
{
    Grid g{std::move(configs), std::move(workloads), {}};
    // Configurations equal but for their name are one machine, run
    // once under the name of its first configuration. A linear search
    // is plenty for the hundred-odd variants of a run.
    std::vector<size_t> machines; // first configuration of each
    std::vector<size_t> machine_of;
    for (uarch::SimConfig cfg : g.configs) {
        size_t m = 0;
        for (; m < machines.size(); ++m) {
            cfg.name = g.configs[machines[m]].name;
            if (cfg == g.configs[machines[m]])
                break;
        }
        if (m == machines.size())
            machines.push_back(machine_of.size());
        machine_of.push_back(m);
    }
    const size_t nw = g.workloads.size();
    std::vector<SweepTask> tasks;
    tasks.reserve(machines.size() * nw);
    for (size_t first : machines)
        for (const std::string &w : g.workloads)
            tasks.push_back({g.configs[first], cachedWorkloadTraceView(w)});
    std::vector<uarch::SimStats> runs = std::move(run(tasks).stats);
    g.stats.reserve(g.configs.size() * nw);
    for (size_t c = 0; c < g.configs.size(); ++c)
        for (size_t w = 0; w < nw; ++w) {
            g.stats.push_back(runs[machine_of[c] * nw + w]);
            g.stats.back().config_name() = g.configs[c].name;
        }
    return g;
}

RunResult
run(const std::vector<SweepTask> &tasks, const RunOptions &opt)
{
    for (const SweepTask &t : tasks) {
        if (!t.trace.records && t.trace.count)
            panic("core::run: task with null trace");
        t.cfg.validate();
    }

    // Expand every task into its shard plan, as one flat list so
    // shards of different tasks load-balance against each other. An
    // unsharded task is a one-shard plan that keeps its own warmup.
    const bool sharded = opt.shards > 1 || opt.warmup > 0;
    struct FlatShard
    {
        size_t task;
        ShardSpec spec;
    };
    std::vector<FlatShard> flat;
    flat.reserve(tasks.size());
    std::vector<size_t> first(tasks.size() + 1, 0);
    for (size_t p = 0; p < tasks.size(); ++p) {
        if (sharded) {
            for (const ShardSpec &spec : planShards(
                     tasks[p].trace.count, opt.shards, opt.warmup))
                flat.push_back({p, spec});
        } else {
            flat.push_back(
                {p, {0, tasks[p].trace.count, tasks[p].warmup}});
        }
        first[p + 1] = flat.size();
    }

    RunResult r;
    if (opt.collect_results) {
        r.stats.resize(flat.size());
        r.groups.resize(tasks.size());
    }
    // In streaming mode a task's finished shards wait in a buffer
    // allocated when its first shard finishes and freed when it
    // merges, so memory follows the shards in flight, not the plan.
    std::mutex buf_mu;
    std::vector<std::unique_ptr<std::vector<uarch::SimStats>>> shard_buf(
        sharded && !opt.collect_results ? tasks.size() : 0);
    std::vector<std::atomic<size_t>> remaining(tasks.size());
    for (size_t p = 0; p < tasks.size(); ++p)
        remaining[p].store(first[p + 1] - first[p],
                           std::memory_order_relaxed);

    runPool(flat.size(), opt.jobs, [&](size_t i) {
        if (detail::sweep_task_hook)
            detail::sweep_task_hook(i);
        const size_t task = flat[i].task;
        const ShardSpec &spec = flat[i].spec;
        const size_t shard = i - first[task];
        const size_t shards = first[task + 1] - first[task];

        uarch::RunLimits limits;
        limits.warmup = spec.warmup;
        if (opt.sample_every && opt.on_snapshot) {
            limits.sample_every = opt.sample_every;
            limits.sampler = [&](const uarch::StatSnapshot &snap) {
                opt.on_snapshot(task, shard, snap);
            };
        }
        uarch::SimStats local;
        uarch::SimStats &s = opt.collect_results ? r.stats[i] : local;
        s = uarch::simulate(
            tasks[task].cfg,
            tasks[task].trace.slice(spec.begin, spec.end - spec.begin),
            limits);
        if (opt.on_shard)
            opt.on_shard(task, shard, s);

        if (shards > 1 && !opt.collect_results) {
            std::lock_guard<std::mutex> lock(buf_mu);
            if (!shard_buf[task])
                shard_buf[task] =
                    std::make_unique<std::vector<uarch::SimStats>>(
                        shards);
            (*shard_buf[task])[shard] = s;
        }
        // acq_rel: the worker that decrements to zero must observe
        // every other worker's writes to this task's shard slots.
        if (remaining[task].fetch_sub(1, std::memory_order_acq_rel) != 1)
            return;
        StatGroup g;
        if (shards == 1) {
            g = s.group();
        } else if (opt.collect_results) {
            g = mergedStats(
                {r.stats.begin() + static_cast<ptrdiff_t>(first[task]),
                 r.stats.begin() +
                     static_cast<ptrdiff_t>(first[task + 1])});
        } else {
            g = mergedStats(*shard_buf[task]);
            shard_buf[task].reset();
        }
        g.label() = tasks[task].cfg.name;
        if (opt.on_result)
            opt.on_result(task, g);
        if (opt.collect_results)
            r.groups[task] = std::move(g);
    });
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
