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
    trace::SyntheticParams sp;
    sp.seed = 5;
    trace::TraceBuffer buf = trace::generateSynthetic(sp, 10000);

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
    trace::SyntheticParams sp;
    trace::TraceBuffer buf = trace::generateSynthetic(sp, 5000);

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
    trace::SyntheticParams sp;
    trace::TraceBuffer buf = trace::generateSynthetic(sp, 3000);
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
    trace::SyntheticParams sp;
    trace::TraceBuffer buf = trace::generateSynthetic(sp, 2000);
    std::vector<uarch::SimConfig> configs(8, core::baseline8Way());

    HookGuard guard(&throwOnTaskThree);
    for (unsigned jobs : {1u, 4u}) {
        try {
            sweep(configs, buf, jobs);
            FAIL() << "expected the injected fault to propagate "
                      "(jobs=" << jobs << ")";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "injected fault in task 3");
        }
    }
}

TEST(Sweep, RecoversAfterWorkerException)
{
    // The pool must wind down cleanly: a subsequent sweep on the
    // same traces works and produces correct results.
    trace::SyntheticParams sp;
    trace::TraceBuffer buf = trace::generateSynthetic(sp, 2000);
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
