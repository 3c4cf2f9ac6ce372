/**
 * @file
 * Accuracy and speedup of sharded trace simulation — the measurement
 * harness behind `cesp-sim --shards`. The longest bundled workload
 * (perl, ~1.18M trace records) is simulated monolithically and then
 * as K warmed-up shards; each benchmark's counters record the
 * merged-IPC relative error and two speedups:
 *
 *  - speedup_wall_clock: monolithic time over the sharded run's
 *    actual time on this host. On a single-CPU machine the shards
 *    time-slice one core, so this is honestly <= 1.
 *  - speedup_critical_path: monolithic time over the slowest single
 *    shard's serial time — the wall-clock a host with >= K cores
 *    would see, since the work-stealing pool runs one shard per
 *    core and the run ends when the longest shard does.
 *
 * Links into the micro_simspeed binary (google-benchmark registers
 * across translation units), so bench/run_bench.sh lands these rows
 * in BENCH_simspeed.json alongside the other microbenchmarks.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>

#include "core/machine.hpp"
#include "core/presets.hpp"
#include "core/sweep.hpp"
#include "trace/trace.hpp"
#include "uarch/pipeline.hpp"

using namespace cesp;

namespace {

constexpr const char *kWorkload = "perl";
constexpr uint64_t kWarmup = 50000;

/** Monolithic IPC and serial run time, computed once. */
struct MonoBaseline
{
    double ipc;
    double seconds;
};

const MonoBaseline &
monoBaseline()
{
    // Best of three runs: on a loaded single-CPU host a single
    // timing can absorb an arbitrary scheduling hiccup, and every
    // speedup counter divides by this number.
    static const MonoBaseline mono = [] {
        trace::TraceView tv = core::cachedWorkloadTraceView(kWorkload);
        uarch::SimConfig cfg = core::baseline8Way();
        MonoBaseline best{0.0, 0.0};
        for (int i = 0; i < 3; ++i) {
            auto t0 = std::chrono::steady_clock::now();
            trace::TraceCursor cur(tv);
            uarch::SimStats s = uarch::simulate(cfg, cur);
            auto t1 = std::chrono::steady_clock::now();
            double secs =
                std::chrono::duration<double>(t1 - t0).count();
            if (best.seconds == 0.0 || secs < best.seconds)
                best = {s.ipc(), secs};
        }
        return best;
    }();
    return mono;
}

} // namespace

static void
BM_ShardedWorkload(benchmark::State &state)
{
    const unsigned k = static_cast<unsigned>(state.range(0));
    trace::TraceView tv = core::cachedWorkloadTraceView(kWorkload);
    const uarch::SimConfig cfg = core::baseline8Way();
    const MonoBaseline &mono = monoBaseline();

    core::RunOptions opt;
    opt.jobs = k;
    opt.shards = k;
    opt.warmup = kWarmup;

    double merged_ipc = 0.0;
    for (auto _ : state) {
        core::RunResult run = core::run({{cfg, tv}}, opt);
        merged_ipc = run.groups[0].value("ipc");
        benchmark::DoNotOptimize(merged_ipc);
        state.SetItemsProcessed(
            state.items_processed() +
            static_cast<int64_t>(run.groups[0].counter("committed")));
    }

    // Honest wall clock for one sharded run on this host (jobs = K
    // threads, however many cores exist), then each shard serially
    // for the critical path a K-core host would pay.
    auto t0 = std::chrono::steady_clock::now();
    core::run({{cfg, tv}}, opt);
    auto t1 = std::chrono::steady_clock::now();
    const double sharded_secs =
        std::chrono::duration<double>(t1 - t0).count();

    double max_shard_secs = 0.0;
    for (const core::ShardSpec &s :
         core::planShards(tv.count, k, kWarmup)) {
        trace::TraceView slice = tv.slice(s.begin, s.end - s.begin);
        auto s0 = std::chrono::steady_clock::now();
        trace::TraceCursor cur(slice);
        uarch::RunLimits limits;
        limits.warmup = s.warmup;
        uarch::SimStats st = uarch::simulate(cfg, cur, limits);
        auto s1 = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(st.cycles());
        max_shard_secs = std::max(
            max_shard_secs,
            std::chrono::duration<double>(s1 - s0).count());
    }

    state.counters["ipc_error_pct"] =
        100.0 * std::fabs(merged_ipc - mono.ipc) / mono.ipc;
    state.counters["speedup_wall_clock"] = mono.seconds / sharded_secs;
    state.counters["speedup_critical_path"] =
        mono.seconds / max_shard_secs;
}
BENCHMARK(BM_ShardedWorkload)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
