#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "asm/assembler.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "core/machine.hpp"
#include "core/presets.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "context.hpp"
#include "func/emulator.hpp"
#include "measure.hpp"
#include "replay.hpp"
#include "trace/mmap_source.hpp"
#include "trace/tracefile.hpp"
#include "uarch/pipeline.hpp"
#include "workloads/workloads.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using cesp::StatGroup;

const std::vector<Preset> &
presets()
{
    namespace core = cesp::core;
    static const std::vector<Preset> all = {
        {"baseline", core::baseline8Way},
        {"dep8x8", core::dependence8x8},
        {"clustered2x4", core::clusteredDependence2x4},
        {"windows2x4", core::clusteredWindows2x4},
        {"execsteer", core::clusteredExecDriven2x4},
        {"random2x4", core::clusteredRandom2x4},
        {"baseline16", core::baseline16Way},
        {"dep4x4", core::clusteredDependence4x4},
    };
    return all;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_sweep", "synthetic_sweep", "sharded_stream"};
    return names;
}

namespace {

// Grid of synthetic_sweep: mean dependence distance (serial chains
// to wide ILP) x data working set (fits the 32 KB L1 .. 16x it).
constexpr double kDepDistances[] = {2.0, 4.0, 8.0, 12.0};
constexpr uint32_t kWorkingSets[] = {16 * 1024, 64 * 1024, 512 * 1024};
constexpr uint64_t kSyntheticLength = 200'000;

/** Instructions each component replay recording simulates. */
constexpr uint64_t kReplayInsts = 200'000;
constexpr int kReplayReps = 5;
/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupReps = 9;

std::vector<std::string>
paperKernels()
{
    std::vector<std::string> names;
    for (const auto &w : cesp::workloads::allWorkloads())
        names.push_back(w.name);
    return names;
}

size_t
indexOf(const std::vector<std::string> &v, const std::string &s)
{
    return static_cast<size_t>(std::find(v.begin(), v.end(), s) -
                               v.begin());
}

/** SplitMix64 finalizer: decorrelates the per-trace seeds drawn
 *  from one benchmark seed. */
uint64_t
mixSeed(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

bool
planWorkload(const std::string &name, uint64_t seed, unsigned nproc,
             Plan &p)
{
    p = Plan{};
    p.name = name;
    const std::vector<size_t> three = {0, 1, 2}; // baseline dep8x8 2x4
    if (name == "paper_sweep") {
        for (size_t i = 0; i < presets().size(); ++i)
            p.presets.push_back(i);
        p.kernels = paperKernels();
        p.golden = "paper_sweep.json";
        // m88ksim keeps the window full, li is pointer chasing.
        for (size_t pr : three)
            for (const char *k : {"m88ksim", "li"})
                p.replays.push_back({pr, indexOf(p.kernels, k)});
    } else if (name == "synthetic_sweep") {
        p.presets = three;
        for (double d : kDepDistances)
            for (uint32_t ws : kWorkingSets) {
                cesp::trace::SyntheticParams sp;
                sp.seed = mixSeed(seed * 64 + p.synthetic.size());
                sp.mean_dep_distance = d;
                sp.working_set = ws;
                p.synthetic.push_back(sp);
            }
        p.synthetic_length = kSyntheticLength;
        if (seed == kDefaultSeed)
            p.golden = "synthetic_sweep_seed1.json";
        // The 512 KB inputs at both dependence extremes.
        for (size_t pr : three)
            for (size_t i : {size_t{2}, size_t{11}})
                p.replays.push_back({pr, i});
    } else if (name == "sharded_stream") {
        p.presets = three;
        p.kernels = paperKernels();
        p.jobs = std::max(1u, nproc);
        p.shards = 8;
        p.warmup = 50'000;
        p.sample_every = 100'000;
        p.golden = "sharded_stream.json";
        for (size_t pr : three)
            for (const char *k : {"perl", "vortex"})
                p.replays.push_back({pr, indexOf(p.kernels, k)});
    } else {
        return false;
    }
    return true;
}

std::vector<Metric>
layerSchema()
{
    std::vector<Metric> m;
    auto add = [&](const std::string &n, const std::string &u) {
        m.push_back({n, 0.0, u});
    };
    // A rate and, beside it, the operation count it divides.
    auto addRate = [&](const std::string &n, const std::string &u) {
        add(n, u);
        add(n + ".ops", "count");
    };
    add("host.nproc", "count");
    add("host.loadavg1", "load");
    add("host.calib_ms", "ms");
    add("host.sim_mips", "Minst/s");
    add("host.wall_s", "s");
    add("host.cpu_s", "s");
    add("trace_overhead_pct", "%");
    for (const Preset &p : presets())
        addRate(std::string("uarch.ns_per_inst.") + p.name, "ns");
    for (const std::string &k : paperKernels())
        addRate("uarch.ns_per_inst." + k, "ns");
    addRate("uarch.ns_per_cycle", "ns");
    addRate("uarch.window.ns_per_op", "ns");
    addRate("uarch.wakeup.ns_per_event", "ns");
    add("uarch.occupancy_mean", "entries");
    addRate("uarch.steer.ns_per_decide", "ns");
    add("uarch.steer.chain_frac", "ratio");
    addRate("uarch.fifo.ns_per_op", "ns");
    addRate("uarch.rename.ns_per_op", "ns");
    addRate("uarch.lsq.ns_per_op", "ns");
    add("uarch.lsq.forward_frac", "ratio");
    addRate("bpred.ns_per_branch", "ns");
    add("bpred.accuracy", "ratio");
    addRate("mem.ns_per_access", "ns");
    add("mem.hit_rate", "ratio");
    add("uarch.dcache_miss_rate", "ratio");
    addRate("asm.assemble_ms", "ms");
    addRate("func.emu_mips", "Minst/s");
    addRate("trace.save_ms", "ms");
    addRate("trace.synthetic_mrec_per_s", "Mrec/s");
    addRate("core.resolve_ms", "ms");
    addRate("trace.mmap_open_ms", "ms");
    addRate("trace.verify_gbps", "GB/s");
    add("core.parallel_eff", "ratio");
    add("core.critical_path_s", "s");
    add("core.shard_imbalance", "ratio");
    add("core.warmup_frac", "ratio");
    addRate("core.merge_ms", "ms");
    add("core.shard_ipc_err_pct", "%");
    add("metrics.stream_records", "count");
    add("metrics.stream_mb", "MB");
    addRate("metrics.append_us", "us");
    addRate("metrics.load_mbps", "MB/s");
    addRate("metrics.compare_ms", "ms");
    return m;
}

namespace {

bool
hasMetric(const std::vector<Metric> &sheet, const std::string &name)
{
    return std::any_of(sheet.begin(), sheet.end(),
                       [&](const Metric &m) { return m.name == name; });
}

/** Set metric @p name of @p sheet (which must list it). */
void
set(std::vector<Metric> &sheet, const std::string &name, double value)
{
    for (Metric &m : sheet)
        if (m.name == name) {
            m.value = value;
            return;
        }
    throw std::logic_error("perfbench: unknown metric " + name);
}

/** Set a rate metric and its op count. */
void
setRate(std::vector<Metric> &sheet, const std::string &name,
        double value, uint64_t ops)
{
    set(sheet, name, value);
    set(sheet, name + ".ops", static_cast<double>(ops));
}

struct Input
{
    std::string name;
    cesp::trace::TraceView view;
};

/** Accumulated simulated work of the traced passes. */
struct SimTotals
{
    std::map<std::string, double> seconds; //!< by preset and input
    std::map<std::string, uint64_t> insts;
    double all_seconds = 0.0;
    uint64_t cycles = 0;
    double occupancy_weighted = 0.0; //!< sum of mean * samples
    uint64_t occupancy_samples = 0;
    uint64_t dcache_accesses = 0, dcache_misses = 0;

    void
    addStats(const StatGroup &g)
    {
        const cesp::StatEntry *e = g.find("buffer_occupancy");
        if (e) {
            const cesp::Histogram &h = g.histogramAt(e->store);
            occupancy_weighted +=
                h.mean() * static_cast<double>(h.total());
            occupancy_samples += h.total();
        }
        dcache_accesses += g.counter("dcache_accesses");
        dcache_misses += g.counter("dcache_misses");
    }
};

class Runner
{
  public:
    Runner(const Plan &plan, const Options &opt, SpanRecorder &spans)
        : plan_(plan), opt_(opt), spans_(spans),
          layers_(layerSchema())
    {
        for (size_t p : plan.presets)
            cfgs_.push_back(presets()[p].make());
        // Exporting is how golden files are made, so it runs without
        // them (committed counts and pass-to-pass identity still
        // gate).
        if (!plan.golden.empty() && opt.export_path.empty()) {
            fs::path path = fs::path(opt.golden_dir) / plan.golden;
            golden_ = loadGolden(path.string());
            if (golden_.size() < plan.presets.size() * plan.inputs())
                throw std::runtime_error("golden " + path.string() +
                                         " holds too few groups");
        }
        fs::create_directories(opt.state_dir);
    }

    Outcome
    run()
    {
        double setup_s = setUp();
        if (plan_.shards > 1)
            timedSharded();
        else
            timedMonolithic();
        if (opt_.trace) {
            replays();
            spanLayers();
        }
        // Host times as measured, and scaled to the reference host
        // by the run's median calibration time.
        const double calib_ms = median(calib_ms_);
        const double wall_ref = atReferenceHost(wall_s_, calib_ms);
        const double insts = static_cast<double>(pass_insts_);
        const double sim_mips = perSecond(insts, wall_s_) / 1e6;
        out_.measured = {
            {"sim_mips", sim_mips, "Minst/s"},
            {"wall_s", wall_s_, "s"},
            {"cpu_s", cpu_s_, "s"},
            {"calib_ms", calib_ms, "ms"},
        };
        out_.end_to_end = {
            {"sim_mips_norm", perSecond(insts, wall_ref) / 1e6, "Minst/s"},
            {"wall_s_norm", wall_ref, "s"},
            {"cpu_s_norm", atReferenceHost(cpu_s_, calib_ms), "s"},
            {"setup_s", setup_s, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
        set(layers_, "host.calib_ms", calib_ms);
        set(layers_, "host.sim_mips", sim_mips);
        set(layers_, "host.wall_s", wall_s_);
        set(layers_, "host.cpu_s", cpu_s_);
        if (opt_.trace)
            out_.layers = layers_;
        return out_;
    }

  private:
    // ---- set-up ------------------------------------------------------

    fs::path
    cacheDir() const
    {
        return fs::path(opt_.state_dir) / "traces" / plan_.name;
    }

    /** Resolve every kernel through the library's trace cache. */
    double
    resolveKernels()
    {
        inputs_.clear();
        double t0 = wallNow();
        for (const std::string &k : plan_.kernels) {
            ScopedSpan span(spans_, "core.cachedWorkloadTraceView", -1, k);
            inputs_.push_back({k, cesp::core::cachedWorkloadTraceView(k)});
        }
        return wallNow() - t0;
    }

    double
    setUp()
    {
        const fs::path dir = cacheDir();
        fs::create_directories(dir);
        if (setenv("CESP_TRACE_CACHE", dir.c_str(), 1) != 0)
            throw std::runtime_error("cannot set CESP_TRACE_CACHE");

        std::vector<double> times;
        if (!plan_.synthetic.empty()) {
            for (int r = 0; r < kSetupReps; ++r) {
                synth_.clear();
                double t0 = wallNow();
                for (const auto &sp : plan_.synthetic) {
                    ScopedSpan span(spans_, "trace.generateSynthetic");
                    synth_.push_back(cesp::trace::generateSynthetic(
                        sp, plan_.synthetic_length));
                }
                times.push_back(wallNow() - t0);
            }
            inputs_.clear();
            for (size_t i = 0; i < synth_.size(); ++i) {
                const auto &sp = plan_.synthetic[i];
                inputs_.push_back(
                    {cesp::strprintf("dep%g_ws%uk", sp.mean_dep_distance,
                                     sp.working_set / 1024),
                     synth_[i]});
            }
        } else if (plan_.shards > 1) {
            // Publish once (untimed); set-up is the warm remap.
            cesp::core::clearTraceCache();
            spans_.setActive(false);
            resolveKernels();
            spans_.setActive(true);
            for (int r = 0; r < kSetupReps; ++r) {
                cesp::core::clearTraceCache();
                times.push_back(resolveKernels());
            }
            if (opt_.trace)
                tracedMmapOpens();
        } else {
            // Cold: an empty cache directory every repetition, so
            // assembly, emulation and trace publishing are all timed.
            for (int r = 0; r < kSetupReps; ++r) {
                cesp::core::clearTraceCache();
                fs::remove_all(dir);
                fs::create_directories(dir);
                times.push_back(resolveKernels());
            }
            if (opt_.trace)
                tracedColdSteps();
        }
        return median(times);
    }

    /** paper_sweep traced set-up: the cold path's steps one by one
     *  (assemble, emulate, save), each checked against the trace the
     *  library published. */
    void
    tracedColdSteps()
    {
        fs::path tmp = fs::path(opt_.state_dir) / "perfbench-save.trc";
        for (const auto &w : cesp::workloads::allWorkloads()) {
            size_t k = indexOf(plan_.kernels, w.name);
            if (k >= inputs_.size())
                continue;
            std::string reason;
            cesp::assembler::AssembleResult prog;
            {
                ScopedSpan span(spans_, "asm.assemble", -1, w.name);
                prog = cesp::assembler::assemble(w.source);
            }
            if (!prog.ok) {
                out_.tally.record("setup/" + w.name, prog.error);
                continue;
            }
            cesp::trace::TraceBuffer buf;
            cesp::func::ExecResult r;
            {
                ScopedSpan span(spans_, "func.Emulator.run", -1, w.name);
                cesp::func::Emulator emu(prog.program);
                r = emu.run(w.max_instructions, &buf);
            }
            emu_insts_ += r.instructions;
            cesp::trace::TraceIoResult saved;
            {
                ScopedSpan span(spans_, "trace.saveTrace", -1, w.name);
                saved = cesp::trace::saveTrace(buf, tmp.string());
            }
            saved_records_ += buf.size();
            const auto &view = inputs_[k].view;
            if (!r.halted || r.console != w.expected_console)
                reason = "emulation did not reproduce the checksum";
            else if (!saved.ok())
                reason = saved.detail;
            else if (buf.size() != view.count ||
                     std::memcmp(buf.ops().data(), view.records,
                                 view.count *
                                     sizeof(cesp::trace::TraceOp)) != 0)
                reason = "emulated trace differs from the cached one";
            out_.tally.record("setup/" + w.name, reason);
        }
        fs::remove(tmp);
    }

    /** sharded_stream traced set-up: map and verify each published
     *  trace file directly. */
    void
    tracedMmapOpens()
    {
        for (const auto &entry : fs::directory_iterator(cacheDir())) {
            if (entry.path().extension() != ".trc")
                continue;
            cesp::trace::MmapTraceSource src;
            cesp::trace::TraceIoResult opened;
            {
                ScopedSpan span(spans_, "trace.MmapTraceSource.open");
                opened = src.open(entry.path().string());
            }
            out_.tally.record("setup/" + entry.path().filename().string(),
                              opened.ok() ? "" : opened.detail);
            mapped_bytes_ += fs::file_size(entry.path());
        }
    }

    // ---- timed phase -------------------------------------------------

    /** "preset<sep>input" of task @p t. */
    std::string
    taskTag(size_t t, const char *sep = "/") const
    {
        size_t n = inputs_.size();
        return std::string(presets()[plan_.presets[t / n]].name) + sep +
            inputs_[t % n].name;
    }

    /** Golden group of task @p t, else its first-pass result. */
    const StatGroup *
    reference(size_t t) const
    {
        if (!golden_.empty())
            return &golden_[t];
        return t < first_pass_.size() ? &first_pass_[t] : nullptr;
    }

    /** Time the calibration loop if a second has passed since the
     *  last time (or @p force): ~2.5% of the timed phase, spread over
     *  it so the samples see the host as the work does. */
    void
    calibrate(bool force = false)
    {
        if (!force && wallNow() - last_calib_ < 1.0)
            return;
        calib_ms_.push_back(calibrationMs());
        last_calib_ = wallNow();
    }

    bool
    keepGoing(int passes_done, double start) const
    {
        int min_passes = opt_.trace ? 2 : 1;
        return passes_done < min_passes ||
            wallNow() - start < opt_.seconds;
    }

    void
    exportGroups(const std::vector<StatGroup> &groups)
    {
        std::vector<StatGroup> labelled = groups;
        for (size_t t = 0; t < labelled.size(); ++t)
            labelled[t].label() = taskTag(t, " / ");
        std::string err;
        if (!cesp::writeTextOutput(opt_.export_path,
                                   cesp::statGroupListJson(labelled, {}),
                                   &err))
            throw std::runtime_error(err);
    }

    void
    timedMonolithic()
    {
        const size_t n = inputs_.size();
        const size_t tasks = plan_.presets.size() * n;
        std::vector<std::vector<double>> wall(tasks), cpu(tasks);
        std::vector<double> pass_plain, pass_traced;
        for (size_t t = 0; t < tasks; ++t)
            pass_insts_ += inputs_[t % n].view.count;

        calibrate(true);
        double start = wallNow();
        for (int pass = 0; keepGoing(pass, start); ++pass) {
            const bool traced = opt_.trace && pass % 2 == 1;
            spans_.setActive(traced);
            std::vector<StatGroup> groups(tasks);
            double p0 = wallNow();
            for (size_t t = 0; t < tasks; ++t) {
                calibrate();
                const Input &in = inputs_[t % n];
                const std::string tag = taskTag(t);
                double c0 = processCpuSeconds();
                double w0 = wallNow();
                cesp::uarch::SimStats stats;
                std::string reason;
                try {
                    ScopedSpan span(spans_, "uarch.simulate",
                                    static_cast<int64_t>(t), tag);
                    cesp::trace::TraceCursor cursor(in.view);
                    stats = cesp::uarch::simulate(cfgs_[t / n], cursor);
                } catch (const std::exception &e) {
                    reason = e.what();
                }
                double dw = wallNow() - w0;
                double dc = processCpuSeconds() - c0;
                if (reason.empty())
                    reason = checkSimulation(stats.group(), in.view.count,
                                             reference(t));
                out_.tally.record(tag, reason);
                groups[t] = stats.group();
                if (traced) {
                    sim_.all_seconds += dw;
                    sim_.cycles += stats.cycles();
                    sim_.addStats(stats.group());
                    for (const std::string &key :
                         {tag.substr(0, tag.find('/')), in.name}) {
                        sim_.seconds[key] += dw;
                        sim_.insts[key] += stats.committed();
                    }
                } else {
                    wall[t].push_back(dw);
                    cpu[t].push_back(dc);
                }
            }
            (traced ? pass_traced : pass_plain)
                .push_back(wallNow() - p0);
            if (pass == 0) {
                first_pass_ = groups;
                if (!opt_.export_path.empty())
                    exportGroups(groups);
            }
        }

        spans_.setActive(true);
        // Each task's median over the untraced passes, summed: one
        // pass of the sweep with per-task noise bursts voted out.
        wall_s_ = cpu_s_ = 0.0;
        for (size_t t = 0; t < tasks; ++t) {
            wall_s_ += median(wall[t]);
            cpu_s_ += median(cpu[t]);
        }
        setOverhead(pass_plain, pass_traced);

        // Synthetic inputs have no per-input row; presets and paper
        // kernels do.
        for (const auto &[key, secs] : sim_.seconds)
            if (hasMetric(layers_, "uarch.ns_per_inst." + key))
                setRate(layers_, "uarch.ns_per_inst." + key,
                        nsPerOp(secs, sim_.insts[key]), sim_.insts[key]);
        setRate(layers_, "uarch.ns_per_cycle",
                nsPerOp(sim_.all_seconds, sim_.cycles), sim_.cycles);
        setSimShape();
    }

    void
    setSimShape()
    {
        set(layers_, "uarch.occupancy_mean",
            sim_.occupancy_samples
                ? sim_.occupancy_weighted /
                    static_cast<double>(sim_.occupancy_samples)
                : 0.0);
        set(layers_, "uarch.dcache_miss_rate",
            sim_.dcache_accesses
                ? static_cast<double>(sim_.dcache_misses) /
                    static_cast<double>(sim_.dcache_accesses)
                : 0.0);
    }

    void
    setOverhead(const std::vector<double> &plain,
                const std::vector<double> &traced)
    {
        if (!plain.empty() && !traced.empty())
            set(layers_, "trace_overhead_pct",
                (median(traced) / median(plain) - 1.0) * 100.0);
    }

    void
    timedSharded()
    {
        namespace core = cesp::core;
        const size_t n = inputs_.size();
        const size_t tasks = plan_.presets.size() * n;
        std::vector<core::SweepTask> sweep;
        std::vector<size_t> first_shard;
        uint64_t warm = 0, simulated = 0;
        for (size_t t = 0; t < tasks; ++t) {
            const auto &view = inputs_[t % n].view;
            sweep.push_back({cfgs_[t / n], view, 0});
            first_shard.push_back(warm_shards_);
            for (const core::ShardSpec &s :
                 core::planShards(view.count, plan_.shards, plan_.warmup)) {
                warm += s.warmup;
                simulated += s.end - s.begin;
                ++warm_shards_;
            }
            pass_insts_ += view.count;
        }
        first_shard.push_back(warm_shards_);

        const std::vector<StatGroup> mono = loadGolden(
            (fs::path(opt_.golden_dir) / "paper_sweep.json").string());

        const std::string path =
            (fs::path(opt_.state_dir) / "sharded_stream.jsonl").string();
        std::vector<double> pass_plain, pass_traced, cpu_plain;
        std::vector<double> shard_secs;
        double run_secs = 0.0;
        uint64_t records = 0, stream_bytes = 0, traced_passes = 0;
        double ipc_err = 0.0;

        calibrate(true);
        double start = wallNow();
        for (int pass = 0; keepGoing(pass, start); ++pass) {
            calibrate();
            const bool traced = opt_.trace && pass % 2 == 1;
            spans_.setActive(traced);
            cesp::StatStreamWriter stream(path);
            if (!stream.ok())
                throw std::runtime_error(stream.error());
            std::atomic<uint64_t> appended{0};
            std::mutex mu; // guards last_done, shard_secs
            std::map<std::thread::id, double> last_done;
            double c0 = processCpuSeconds();
            double w0 = wallNow();
            int64_t run_span = spans_.begin("core.run");

            auto append = [&](const cesp::StatStreamMeta &meta,
                              const StatGroup &g, const StatGroup *delta) {
                ScopedSpan span(spans_, "metrics.StatStreamWriter.append",
                                meta.task, meta.kind, run_span);
                stream.append(meta, g, delta);
                ++appended;
            };
            core::RunOptions ro;
            ro.jobs = plan_.jobs;
            ro.shards = plan_.shards;
            ro.warmup = plan_.warmup;
            ro.sample_every = plan_.sample_every;
            ro.on_result = [&](size_t task, const StatGroup &g) {
                append({"run", static_cast<int64_t>(task), -1, -1}, g,
                       nullptr);
            };
            ro.on_shard = [&](size_t task, size_t shard,
                              const cesp::uarch::SimStats &s) {
                if (traced) {
                    // A worker's previous completion (or the run's
                    // start) to this one is this shard's simulation.
                    std::lock_guard<std::mutex> lock(mu);
                    auto it = last_done.find(std::this_thread::get_id());
                    shard_secs.push_back(
                        wallNow() - (it == last_done.end() ? w0 : it->second));
                }
                append({"shard", static_cast<int64_t>(task),
                        static_cast<int64_t>(shard), -1},
                       s.group(), nullptr);
                if (traced) {
                    std::lock_guard<std::mutex> lock(mu);
                    last_done[std::this_thread::get_id()] = wallNow();
                }
            };
            ro.on_snapshot = [&](size_t task, size_t shard,
                                 const cesp::uarch::StatSnapshot &s) {
                append({"snapshot", static_cast<int64_t>(task),
                        static_cast<int64_t>(shard),
                        static_cast<int64_t>(s.index)},
                       s.cumulative, &s.delta);
            };

            core::RunResult result;
            std::string run_error;
            try {
                result = core::run(sweep, ro);
            } catch (const std::exception &e) {
                run_error = e.what();
            }
            spans_.end(run_span);
            double run_wall = wallNow() - w0;
            if (run_error.empty() && result.groups.size() != tasks)
                run_error = "core::run returned too few groups";

            // Read the stream back and check it against the run.
            std::vector<StatGroup> loaded;
            std::string load_error;
            bool loaded_ok;
            {
                ScopedSpan span(spans_, "metrics.loadStatGroups");
                loaded_ok = cesp::loadStatGroups(path, loaded, &load_error);
            }
            core::CompareResult cmp;
            {
                ScopedSpan span(spans_, "core.compareGroups");
                cmp = core::compareGroups(result.groups, loaded);
            }
            std::vector<bool> merged_ok(tasks, false);
            if (run_error.empty() &&
                result.stats.size() == first_shard.back()) {
                ScopedSpan span(spans_, "core.mergedStats");
                for (size_t t = 0; t < tasks; ++t) {
                    std::vector<cesp::uarch::SimStats> part(
                        result.stats.begin() +
                            static_cast<long>(first_shard[t]),
                        result.stats.begin() +
                            static_cast<long>(first_shard[t + 1]));
                    merged_ok[t] = core::mergedStats(part).sameValues(
                        result.groups[t]);
                }
            }
            double pass_wall = wallNow() - w0;
            double pass_cpu = processCpuSeconds() - c0;

            for (size_t t = 0; t < tasks; ++t) {
                std::string reason = run_error;
                if (reason.empty() && !stream.ok())
                    reason = "stream: " + stream.error();
                if (reason.empty() && !loaded_ok)
                    reason = "loadStatGroups: " + load_error;
                if (reason.empty() && loaded.size() != tasks)
                    reason = "stream read back " +
                        std::to_string(loaded.size()) + " groups";
                if (reason.empty() && !loaded[t].sameValues(result.groups[t]))
                    reason = "stream read-back differs from core::run";
                if (reason.empty() &&
                    (!cmp.schema_ok || cmp.entries.size() != tasks ||
                     cmp.entries[t].differing != 0 || cmp.regressed))
                    reason = "compareGroups flags the read-back";
                if (reason.empty() && !merged_ok[t])
                    reason = "mergedStats differs from the merged group";
                if (reason.empty())
                    reason = checkSimulation(result.groups[t],
                                             inputs_[t % n].view.count,
                                             reference(t));
                out_.tally.record(taskTag(t), reason);
                if (reason.empty()) {
                    double mono_ipc = mono.at(t).value("ipc");
                    double rel = std::abs(result.groups[t].value("ipc") -
                                          mono_ipc) /
                        mono_ipc * 100.0;
                    ipc_err = std::max(ipc_err, rel);
                }
            }

            if (traced) {
                ++traced_passes;
                run_secs += run_wall;
                records += appended;
                stream_bytes += fs::file_size(path);
                for (const StatGroup &g : result.groups)
                    sim_.addStats(g);
                pass_traced.push_back(pass_wall);
            } else {
                pass_plain.push_back(pass_wall);
                cpu_plain.push_back(pass_cpu);
            }
            if (pass == 0) {
                first_pass_ = result.groups;
                if (!opt_.export_path.empty())
                    exportGroups(result.groups);
            }
        }

        spans_.setActive(true);
        wall_s_ = median(pass_plain);
        cpu_s_ = median(cpu_plain);
        out_.shard_ipc_err_pct = ipc_err;
        setOverhead(pass_plain, pass_traced);

        set(layers_, "core.shard_ipc_err_pct", ipc_err);
        set(layers_, "core.warmup_frac",
            simulated ? static_cast<double>(warm) /
                    static_cast<double>(simulated)
                      : 0.0);
        if (traced_passes && !shard_secs.empty()) {
            double sum = 0.0, mx = 0.0;
            for (double s : shard_secs) {
                sum += s;
                mx = std::max(mx, s);
            }
            double mean = sum / static_cast<double>(shard_secs.size());
            set(layers_, "core.parallel_eff",
                sum / (static_cast<double>(plan_.jobs) * run_secs));
            set(layers_, "core.critical_path_s", mx);
            set(layers_, "core.shard_imbalance", mx / mean);
            set(layers_, "metrics.stream_records",
                static_cast<double>(records / traced_passes));
            set(layers_, "metrics.stream_mb",
                static_cast<double>(stream_bytes / traced_passes) / 1e6);
            stream_bytes_ = stream_bytes;
        }
        setSimShape();
    }

    // ---- traced-only layers ------------------------------------------

    void
    replays()
    {
        ReplayCosts costs;
        for (auto [p, i] : plan_.replays) {
            size_t slot = static_cast<size_t>(
                std::find(plan_.presets.begin(), plan_.presets.end(), p) -
                plan_.presets.begin());
            Recording rec;
            {
                ScopedSpan span(spans_, "replay.record", -1,
                                std::string(presets()[p].name) + "/" +
                                    inputs_[i].name);
                rec = record(cfgs_[slot], inputs_[i].view, kReplayInsts);
            }
            replayAll(rec, kReplayReps, spans_, costs);
        }
        auto rate = [&](const char *comp, const std::string &metric) {
            const ComponentCost &c = costs[comp];
            setRate(layers_, metric, nsPerOp(c.seconds, c.ops), c.ops);
        };
        auto ratio = [&](const char *comp, const std::string &metric) {
            const ComponentCost &c = costs[comp];
            set(layers_, metric,
                c.tries ? static_cast<double>(c.useful) /
                        static_cast<double>(c.tries)
                        : 0.0);
        };
        rate("bpred", "bpred.ns_per_branch");
        ratio("bpred", "bpred.accuracy");
        rate("mem", "mem.ns_per_access");
        ratio("mem", "mem.hit_rate");
        rate("rename", "uarch.rename.ns_per_op");
        rate("steer", "uarch.steer.ns_per_decide");
        ratio("steer", "uarch.steer.chain_frac");
        rate("fifo", "uarch.fifo.ns_per_op");
        rate("window", "uarch.window.ns_per_op");
        rate("wakeup", "uarch.wakeup.ns_per_event");
        rate("lsq", "uarch.lsq.ns_per_op");
        ratio("lsq", "uarch.lsq.forward_frac");
    }

    /** Layers read from the span totals (self time where children
     *  exist). */
    void
    spanLayers()
    {
        auto totals = totalsByName(spans_.spans());
        auto get = [&](const char *name) { return totals[name]; };

        // Set-up steps are repeated kSetupReps times; per-set-up
        // figures divide by the repetition count.
        SpanTotals as = get("asm.assemble");
        setRate(layers_, "asm.assemble_ms", as.self * 1e3, as.count);
        SpanTotals emu = get("func.Emulator.run");
        setRate(layers_, "func.emu_mips",
                perSecond(static_cast<double>(emu_insts_), emu.self) / 1e6,
                emu_insts_);
        SpanTotals sv = get("trace.saveTrace");
        setRate(layers_, "trace.save_ms", sv.self * 1e3, saved_records_);
        SpanTotals syn = get("trace.generateSynthetic");
        uint64_t syn_records = syn.count * plan_.synthetic_length;
        setRate(layers_, "trace.synthetic_mrec_per_s",
                perSecond(static_cast<double>(syn_records), syn.self) / 1e6,
                syn_records);
        SpanTotals rs = get("core.cachedWorkloadTraceView");
        setRate(layers_, "core.resolve_ms", rs.self * 1e3 / kSetupReps,
                rs.count);
        SpanTotals mo = get("trace.MmapTraceSource.open");
        setRate(layers_, "trace.mmap_open_ms", mo.self * 1e3, mo.count);
        setRate(layers_, "trace.verify_gbps",
                perSecond(static_cast<double>(mapped_bytes_), mo.self) / 1e9,
                mapped_bytes_);
        SpanTotals mg = get("core.mergedStats");
        SpanTotals ap = get("metrics.StatStreamWriter.append");
        SpanTotals ld = get("metrics.loadStatGroups");
        SpanTotals cp = get("core.compareGroups");
        if (mg.count) {
            double passes = static_cast<double>(mg.count);
            setRate(layers_, "core.merge_ms", mg.self * 1e3 / passes,
                    first_pass_.size());
            setRate(layers_, "metrics.compare_ms", cp.self * 1e3 / passes,
                    first_pass_.size());
        }
        setRate(layers_, "metrics.append_us", ap.count ? ap.self * 1e6 /
                    static_cast<double>(ap.count) : 0.0, ap.count);
        setRate(layers_, "metrics.load_mbps",
                perSecond(static_cast<double>(stream_bytes_) / 1e6, ld.self),
                stream_bytes_);
    }

    const Plan &plan_;
    const Options &opt_;
    SpanRecorder &spans_;
    std::vector<Metric> layers_;
    std::vector<cesp::uarch::SimConfig> cfgs_;
    std::vector<StatGroup> golden_;
    std::vector<cesp::trace::TraceBuffer> synth_;
    std::vector<Input> inputs_;
    std::vector<StatGroup> first_pass_;
    SimTotals sim_;
    Outcome out_;
    uint64_t pass_insts_ = 0; //!< committed instructions per pass
    double wall_s_ = 0.0, cpu_s_ = 0.0;
    std::vector<double> calib_ms_;
    double last_calib_ = 0.0;
    uint64_t emu_insts_ = 0, saved_records_ = 0, mapped_bytes_ = 0;
    uint64_t stream_bytes_ = 0;
    size_t warm_shards_ = 0;
};

} // namespace

Outcome
runWorkload(const Plan &plan, const Options &opt, SpanRecorder &spans)
{
    return Runner(plan, opt, spans).run();
}

} // namespace perfbench
