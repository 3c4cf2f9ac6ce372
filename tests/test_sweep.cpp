/**
 * @file
 * Tests of the parallel sweep runner: results must be identical for
 * any worker count (the simulator is a pure function of its config
 * and trace, and the runner must not introduce shared mutable
 * state), and concurrent trace-cache lookups must share one entry.
 * This suite carries the "tsan" ctest label so the ThreadSanitizer
 * preset re-runs it under race detection.
 */

#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/machine.hpp"
#include "core/presets.hpp"
#include "core/sweep.hpp"
#include "trace/synthetic.hpp"

using namespace cesp;
using core::SweepTask;
using uarch::SimStats;

namespace {

/** Whole-stats identity via the metrics registry: every counter,
 *  sample, and histogram bucket participates. */
std::string
fingerprint(const SimStats &s)
{
    return s.group().toJson();
}

/** A mixed task list: several organizations over two traces. */
std::vector<SweepTask>
mixedTasks(const trace::TraceBuffer &a, const trace::TraceBuffer &b)
{
    std::vector<uarch::SimConfig> configs = core::figure17Configs();
    configs.push_back(core::dependence8x8());
    configs.push_back(core::baseline16Way());

    std::vector<SweepTask> tasks;
    for (const uarch::SimConfig &cfg : configs) {
        tasks.push_back({cfg, a});
        tasks.push_back({cfg, b});
    }
    return tasks;
}

/** Plain parallel sweep through the core::run entrypoint. */
std::vector<SimStats>
sweep(const std::vector<SweepTask> &tasks, unsigned jobs)
{
    core::RunOptions opt;
    opt.jobs = jobs;
    return core::run(tasks, opt).stats;
}

/** Every config over one shared trace. */
std::vector<SimStats>
sweep(const std::vector<uarch::SimConfig> &configs,
      const trace::TraceBuffer &buf, unsigned jobs)
{
    std::vector<SweepTask> tasks;
    for (const uarch::SimConfig &cfg : configs)
        tasks.push_back({cfg, buf});
    return sweep(tasks, jobs);
}

} // namespace

TEST(Sweep, IdenticalResultsForAnyThreadCount)
{
    trace::SyntheticParams pa;
    pa.seed = 3;
    trace::TraceBuffer a = trace::generateSynthetic(pa, 15000);
    trace::SyntheticParams pb;
    pb.seed = 8;
    pb.working_set = 256 * 1024; // cache-missing variant
    trace::TraceBuffer b = trace::generateSynthetic(pb, 15000);

    std::vector<SweepTask> tasks = mixedTasks(a, b);
    std::vector<SimStats> serial = sweep(tasks, 1);
    ASSERT_EQ(serial.size(), tasks.size());

    for (unsigned jobs : {2u, 4u, 7u}) {
        std::vector<SimStats> par = sweep(tasks, jobs);
        ASSERT_EQ(par.size(), serial.size());
        for (size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(fingerprint(par[i]), fingerprint(serial[i]))
                << "task " << i << " with " << jobs << " workers";
    }
}

TEST(Sweep, MatchesDirectSimulation)
{
    trace::TraceBuffer buf = trace::generateSynthetic({.seed = 5}, 10000);

    std::vector<uarch::SimConfig> configs = {
        core::baseline8Way(), core::dependence8x8(),
        core::clusteredDependence2x4()};
    std::vector<SimStats> swept = sweep(configs, buf, 3);

    ASSERT_EQ(swept.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        SimStats direct = uarch::simulate(configs[i], buf);
        EXPECT_EQ(fingerprint(swept[i]), fingerprint(direct))
            << configs[i].name;
    }
}

TEST(Sweep, MoreJobsThanTasks)
{
    trace::TraceBuffer buf = trace::generateSynthetic({}, 5000);

    std::vector<uarch::SimConfig> configs = {core::baseline8Way(),
                                             core::dependence8x8()};
    std::vector<SimStats> few = sweep(configs, buf, 16);
    std::vector<SimStats> one = sweep(configs, buf, 1);
    ASSERT_EQ(few.size(), 2u);
    for (size_t i = 0; i < few.size(); ++i)
        EXPECT_EQ(fingerprint(few[i]), fingerprint(one[i]));
}

TEST(Sweep, EmptyTaskList)
{
    std::vector<SweepTask> none;
    EXPECT_TRUE(sweep(none, 4).empty());
}

TEST(Sweep, DegenerateInputsClampDeterministically)
{
    // jobs == 0 means defaultJobs(): same results as serial, no
    // division by a zero worker count anywhere.
    trace::TraceBuffer buf = trace::generateSynthetic({}, 3000);
    std::vector<uarch::SimConfig> configs = {core::baseline8Way(),
                                             core::dependence8x8()};
    std::vector<SimStats> def = sweep(configs, buf, 0);
    std::vector<SimStats> one = sweep(configs, buf, 1);
    ASSERT_EQ(def.size(), 2u);
    for (size_t i = 0; i < def.size(); ++i)
        EXPECT_EQ(fingerprint(def[i]), fingerprint(one[i]));

    // The empty list is a no-op for every jobs value, including the
    // degenerate ones (0 would otherwise spawn defaultJobs() workers
    // with nothing to do; 65536 would try to spawn more threads than
    // tasks exist).
    std::vector<SweepTask> none;
    for (unsigned jobs : {0u, 1u, 16u, 65536u})
        EXPECT_TRUE(sweep(none, jobs).empty())
            << "jobs=" << jobs;

    // A single task swamped with workers clamps to one worker.
    std::vector<SweepTask> single = {{core::baseline8Way(), buf}};
    std::vector<SimStats> flood = sweep(single, 65536);
    ASSERT_EQ(flood.size(), 1u);
    EXPECT_EQ(fingerprint(flood[0]), fingerprint(one[0]));
}

TEST(Sweep, DefaultJobsIsPositive)
{
    EXPECT_GE(core::defaultJobs(), 1u);
}

TEST(Sweep, DefaultJobsCountsTheAffinityMask)
{
    // Pin this thread to one CPU of its own mask: defaultJobs() must
    // count the mask, not the machine. Only this thread's mask
    // changes, and it is restored.
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved))
        ++cpu;
    ASSERT_LT(cpu, CPU_SETSIZE);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const unsigned pinned = core::defaultJobs();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned, 1u);
}

namespace {

/** RAII install/uninstall of the sweep fault-injection hook. */
struct HookGuard
{
    explicit HookGuard(void (*hook)(size_t))
    {
        core::detail::sweep_task_hook = hook;
    }
    ~HookGuard() { core::detail::sweep_task_hook = nullptr; }
};

void
throwOnTaskThree(size_t index)
{
    if (index == 3)
        throw std::runtime_error("injected fault in task 3");
}

} // namespace

TEST(Sweep, WorkerExceptionRethrownOnCaller)
{
    // A throw inside a worker thread must not call std::terminate:
    // the runner captures the first exception, drains the remaining
    // tasks, joins, and rethrows here.
    trace::TraceBuffer buf = trace::generateSynthetic({}, 2000);
    std::vector<uarch::SimConfig> configs(8, core::baseline8Way());

    HookGuard guard(&throwOnTaskThree);
    for (unsigned jobs : {1u, 4u, 12u}) {
        try {
            sweep(configs, buf, jobs);
            FAIL() << "expected the injected fault to propagate "
                      "(jobs=" << jobs << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "injected fault in task 3");
        }
    }
}

namespace {

/** What the pool-contract hook saw: how often each plan position ran,
 *  and on which threads. */
std::mutex seen_mu;
std::vector<int> seen_runs;
std::set<std::thread::id> seen_threads;

void
recordTask(size_t index)
{
    std::lock_guard<std::mutex> lock(seen_mu);
    ++seen_runs.at(index);
    seen_threads.insert(std::this_thread::get_id());
}

} // namespace

TEST(Sweep, PoolRunsEveryTaskOnceOnAtMostJobsThreads)
{
    // The pool contract for every jobs value against plans shorter
    // than, equal to and longer than it: each task runs exactly
    // once, at most min(jobs, count) threads run tasks (the caller
    // among them), and jobs == 1 runs everything on the caller.
    trace::TraceBuffer buf = trace::generateSynthetic({}, 300);
    HookGuard guard(&recordTask);
    for (unsigned jobs : {1u, 2u, 7u, 12u})
        for (size_t count : {0u, 1u, 7u}) {
            std::vector<SweepTask> tasks(count,
                                         {core::baseline8Way(), buf});
            seen_runs.assign(count, 0);
            seen_threads.clear();
            std::atomic<size_t> results{0};
            std::atomic<size_t> off_caller{0};
            const std::thread::id caller = std::this_thread::get_id();
            core::RunOptions opt;
            opt.jobs = jobs;
            opt.on_result = [&](size_t, const StatGroup &) {
                ++results;
                if (std::this_thread::get_id() != caller)
                    ++off_caller;
            };
            core::run(tasks, opt);

            const std::string where = "jobs=" + std::to_string(jobs) +
                " count=" + std::to_string(count);
            EXPECT_EQ(results.load(), count) << where;
            EXPECT_EQ(std::count(seen_runs.begin(), seen_runs.end(), 1),
                      static_cast<ptrdiff_t>(count))
                << where;
            EXPECT_LE(seen_threads.size(),
                      std::min<size_t>(jobs, count))
                << where;
            if (jobs == 1) {
                EXPECT_EQ(off_caller.load(), 0u) << where;
                EXPECT_EQ(seen_threads.size(), seen_threads.count(caller))
                    << where;
            }
        }
}

TEST(Sweep, RecoversAfterWorkerException)
{
    // The pool must wind down cleanly: a subsequent sweep on the
    // same traces works and produces correct results.
    trace::TraceBuffer buf = trace::generateSynthetic({}, 2000);
    std::vector<uarch::SimConfig> configs(8, core::baseline8Way());

    {
        HookGuard guard(&throwOnTaskThree);
        EXPECT_THROW(sweep(configs, buf, 4),
                     std::runtime_error);
    }
    std::vector<SimStats> after = sweep(configs, buf, 4);
    ASSERT_EQ(after.size(), configs.size());
    for (const SimStats &s : after)
        EXPECT_EQ(fingerprint(s), fingerprint(after[0]));
}

TEST(TraceCache, ConcurrentResolveBuildsOneEntry)
{
    // Eight threads race to resolve the same cold entry: it must be
    // built exactly once, so every caller sees the same records.
    core::clearTraceCache();
    constexpr int kThreads = 8;
    std::vector<trace::TraceView> views(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&views, t] {
            views[static_cast<size_t>(t)] =
                core::cachedWorkloadTraceView("go");
        });
    for (std::thread &t : threads)
        t.join();
    ASSERT_GT(views[0].count, 0u);
    for (const trace::TraceView &v : views) {
        EXPECT_EQ(v.records, views[0].records);
        EXPECT_EQ(v.count, views[0].count);
    }
}
