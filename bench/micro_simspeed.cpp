/**
 * @file
 * Google-benchmark microbenchmarks of the library itself: delay-model
 * evaluation throughput, assembler and emulator speed, and simulated
 * instructions per host second for the main machine organizations.
 */

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "asm/assembler.hpp"
#include "common/logging.hpp"
#include "core/machine.hpp"
#include "core/presets.hpp"
#include "func/emulator.hpp"
#include "trace/mmap_source.hpp"
#include "trace/synthetic.hpp"
#include "trace/tracefile.hpp"
#include "uarch/pipeline.hpp"
#include "vlsi/clock.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;

static void
BM_DelayModelEval(benchmark::State &state)
{
    vlsi::ClockEstimator est(vlsi::Process::um0_18);
    vlsi::ClockConfig cfg;
    int iw = 2;
    for (auto _ : state) {
        cfg.issue_width = iw;
        cfg.window_size = 8 * iw;
        benchmark::DoNotOptimize(est.delays(cfg).criticalPs());
        iw = iw == 16 ? 2 : iw * 2;
    }
}
BENCHMARK(BM_DelayModelEval);

static void
BM_Assembler(benchmark::State &state)
{
    const char *src = workloads::workload("compress").source;
    for (auto _ : state) {
        auto r = assembler::assemble(src);
        benchmark::DoNotOptimize(r.ok);
    }
}
BENCHMARK(BM_Assembler);

static void
BM_FunctionalEmulation(benchmark::State &state)
{
    assembler::Program p = assembler::assembleOrDie(
        workloads::workload("compress").source);
    for (auto _ : state) {
        func::Emulator emu(p);
        auto r = emu.run(400000);
        benchmark::DoNotOptimize(r.instructions);
        state.SetItemsProcessed(
            state.items_processed() +
            static_cast<int64_t>(r.instructions));
    }
}
BENCHMARK(BM_FunctionalEmulation);

static void
BM_TimingSim(benchmark::State &state, const uarch::SimConfig &cfg)
{
    // The timing benchmarks must exercise the issue window, not the
    // frontend: with the synthetic defaults (16 KB working set inside
    // a 32 KB L1, mean dependence distance 6) the 128-entry window
    // holds ~6 instructions and the benchmark measures fetch and
    // commit instead. A pointer-chasing profile — short dependence
    // chains over a working set far larger than the L1 — keeps the
    // window occupied and the wakeup/select loop on the critical
    // path.
    trace::SyntheticParams sp;
    sp.mean_dep_distance = 2.0;
    sp.working_set = 512 * 1024;
    trace::TraceBuffer buf = trace::generateSynthetic(sp, 100000);
    for (auto _ : state) {
        auto stats = uarch::simulate(cfg, buf);
        benchmark::DoNotOptimize(stats.cycles());
        state.SetItemsProcessed(
            state.items_processed() +
            static_cast<int64_t>(stats.committed()));
    }
}

static uarch::SimConfig
withModel(uarch::SimConfig cfg, uarch::IssueModel m)
{
    cfg.issue_model = m;
    return cfg;
}

/** 8-way issue over a 128-entry central window. */
static uarch::SimConfig
window8x128()
{
    uarch::SimConfig c = core::baseline8Way();
    c.window_size = 128;
    return c;
}

/** 8-way issue over 128 total FIFO entries (16 FIFOs of depth 8). */
static uarch::SimConfig
fifos8x128()
{
    uarch::SimConfig c = core::dependence8x8();
    c.fifos_per_cluster = 16;
    return c;
}

static void
BM_TimingSim_Window(benchmark::State &state)
{
    BM_TimingSim(state, window8x128());
}
BENCHMARK(BM_TimingSim_Window);

static void
BM_TimingSim_Window_LegacyScan(benchmark::State &state)
{
    BM_TimingSim(state, withModel(window8x128(),
                                  uarch::IssueModel::LegacyScan));
}
BENCHMARK(BM_TimingSim_Window_LegacyScan);

static void
BM_TimingSim_Fifos(benchmark::State &state)
{
    BM_TimingSim(state, fifos8x128());
}
BENCHMARK(BM_TimingSim_Fifos);

static void
BM_TimingSim_Fifos_LegacyScan(benchmark::State &state)
{
    BM_TimingSim(state, withModel(fifos8x128(),
                                  uarch::IssueModel::LegacyScan));
}
BENCHMARK(BM_TimingSim_Fifos_LegacyScan);

static void
BM_TimingSim_Clustered(benchmark::State &state)
{
    BM_TimingSim(state, core::clusteredDependence2x4());
}
BENCHMARK(BM_TimingSim_Clustered);

static void
BM_TimingSim_Clustered_LegacyScan(benchmark::State &state)
{
    BM_TimingSim(state, withModel(core::clusteredDependence2x4(),
                                  uarch::IssueModel::LegacyScan));
}
BENCHMARK(BM_TimingSim_Clustered_LegacyScan);

/**
 * Trace-load startup cost for a cached 8-workload sweep: the work a
 * harness process does before its first simulated cycle. Load freads
 * a v2 payload in bulk and checksums it; Mmap maps the v2 file and
 * verifies the CRC in place, copying nothing — that is what
 * core::cachedWorkloadTraceView does on a warm cache. One file per
 * pseudo-workload, written once.
 */
static const std::vector<std::string> &
startupTraceFiles()
{
    static const std::vector<std::string> files = [] {
        std::filesystem::path dir =
            std::filesystem::temp_directory_path() /
            strprintf("cesp-bench-traces-%d", getpid());
        std::filesystem::create_directories(dir);
        std::vector<std::string> out;
        for (uint64_t w = 0; w < 8; ++w) {
            trace::SyntheticParams sp;
            sp.seed = 100 + w;
            trace::TraceBuffer buf =
                trace::generateSynthetic(sp, 1000000);
            std::string path =
                (dir / strprintf("w%llu.trc",
                                 static_cast<unsigned long long>(w)))
                    .string();
            if (!trace::saveTrace(buf, path).ok())
                fatal("cannot write bench traces under %s",
                      dir.c_str());
            out.push_back(path);
        }
        return out;
    }();
    return files;
}

static void
BM_TraceStartup_Load(benchmark::State &state)
{
    const auto &files = startupTraceFiles();
    int64_t records = 0;
    for (auto _ : state) {
        records = 0;
        for (const std::string &path : files) {
            trace::TraceBuffer buf;
            if (!trace::loadTrace(path, buf).ok())
                fatal("bench trace unreadable: %s", path.c_str());
            benchmark::DoNotOptimize(buf.ops().data());
            records += static_cast<int64_t>(buf.size());
        }
        state.SetItemsProcessed(state.items_processed() + records);
    }
}
BENCHMARK(BM_TraceStartup_Load)->Unit(benchmark::kMillisecond);

static void
BM_TraceStartup_Mmap(benchmark::State &state)
{
    const auto &files = startupTraceFiles();
    int64_t records = 0;
    for (auto _ : state) {
        records = 0;
        for (const std::string &path : files) {
            trace::MmapTraceSource src;
            if (!src.open(path).ok())
                fatal("bench trace unmappable: %s", path.c_str());
            benchmark::DoNotOptimize(src.view().records);
            records += static_cast<int64_t>(src.size());
        }
        state.SetItemsProcessed(state.items_processed() + records);
    }
}
BENCHMARK(BM_TraceStartup_Mmap)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
