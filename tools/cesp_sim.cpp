/**
 * @file
 * cesp-sim: command-line driver for the library. Pick a machine
 * preset (optionally overriding its parameters), point it at a
 * built-in workload, an assembly file, or a synthetic trace, and get
 * the timing statistics — plus the delay-model clock estimate so a
 * run reports complexity-effectiveness (BIPS), not just IPC.
 *
 *   cesp-sim --list
 *   cesp-sim --preset dep8x8 --workload compress
 *   cesp-sim --preset baseline --all-workloads --tech 0.18
 *   cesp-sim --preset clustered2x4 --asm my_kernel.s
 *   cesp-sim --preset baseline --synthetic 1000000 --window 32
 *   cesp-sim --sweep --jobs 4
 *   cesp-sim --workload compress --shards 8 --warmup 50000
 *   cesp-sim --sweep --json-lines sweep.jsonl
 *   cesp-sim --workload perl --sample-every 50000 --json-lines -
 *   cesp-sim --compare before.jsonl after.jsonl --threshold 2%
 *
 * Multi-simulation runs (--sweep, --all-workloads) execute on the
 * parallel sweep engine (core::run); --jobs N picks the worker count
 * (default: all hardware threads). Output is identical for any
 * --jobs value.
 *
 * --shards K splits every trace into K contiguous windows simulated
 * in parallel and merges the measured stats; --warmup N gives each
 * window an N-record state-warming prefix drawn from the records
 * just before it, whose stats are discarded. Sharding composes with
 * every mode, including --sweep and --all-workloads (each (preset,
 * workload) pair is sharded and its shards load-balance on the same
 * pool). --shards 1 --warmup 0 (the default) is bit-identical to the
 * unsharded run.
 *
 * --json-lines FILE appends one self-describing JSON record per
 * finished run (and per shard / interval snapshot) as workers
 * complete, so arbitrarily long sweeps stream to disk in O(1)
 * memory; records carry task indices, not arrival order.
 * --sample-every N adds a statistics snapshot record every N
 * committed instructions without perturbing the simulation.
 *
 * --compare A B loads two exports (JSON documents or .jsonl
 * streams), prints the per-run delta, and exits 1 when the gating
 * metric (--metric, default ipc) regresses by more than --threshold
 * (e.g. '2%'), 2 on load/schema errors — a CI perf gate.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/machine.hpp"
#include "core/presets.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "func/emulator.hpp"
#include "trace/synthetic.hpp"
#include "vlsi/clock.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;

namespace {

/** Emulation bound for --asm programs. */
constexpr unsigned long long kAsmInstructionLimit = 100000000ULL;

/** Largest --synthetic trace (records; 20 bytes each in memory). */
constexpr long long kSyntheticLimit = 1000000000LL;

struct PresetEntry
{
    const char *name;
    const char *description;
    uarch::SimConfig (*make)();
};

const PresetEntry kPresets[] = {
    {"baseline", "8-way, 64-entry central window (Table 3)",
     core::baseline8Way},
    {"dep8x8", "dependence-based, 8 FIFOs x 8 (Figure 13)",
     core::dependence8x8},
    {"clustered2x4", "2x4-way clustered dependence-based (Figure 15)",
     core::clusteredDependence2x4},
    {"windows2x4", "2x 32-entry windows, dispatch steering",
     core::clusteredWindows2x4},
    {"execsteer", "central window, execution-driven steering",
     core::clusteredExecDriven2x4},
    {"random2x4", "2x 32-entry windows, random steering",
     core::clusteredRandom2x4},
    {"baseline16", "16-way, 128-entry central window",
     core::baseline16Way},
    {"dep4x4", "16-way, four 4-way dependence-based clusters",
     core::clusteredDependence4x4},
};

[[noreturn]] void
usage()
{
    std::puts(
        "usage: cesp-sim [options]\n"
        "  --list                 list presets and workloads\n"
        "  --preset NAME          machine preset (default baseline)\n"
        "  --workload NAME        run a built-in benchmark\n"
        "  --all-workloads        run every built-in benchmark\n"
        "  --sweep                run every preset over every "
        "benchmark\n"
        "  --jobs N               parallel simulations for "
        "--sweep/--all-workloads\n"
        "  --shards K             split each trace into K parallel "
        "windows\n"
        "  --warmup N             per-shard warmup records (stats "
        "discarded)\n"
        "  --asm FILE             assemble and run FILE (it must "
        "halt\n"
        "                         within 100000000 instructions)\n"
        "  --synthetic N          run an N-instruction synthetic "
        "trace\n"
        "  --tech F               clock estimate feature size "
        "(0.8|0.35|0.18)\n"
        "  --window N             override window size\n"
        "  --fifos N --depth N    override FIFO shape\n"
        "  --issue N              override issue width\n"
        "  --stages N             wakeup+select pipeline stages\n"
        "  --perfect-bpred        oracle conditional prediction\n"
        "  --seed N               random-steering seed\n"
        "  --json PATH            write statistics as JSON ('-' = "
        "stdout)\n"
        "  --csv PATH             write statistics as CSV ('-' = "
        "stdout)\n"
        "  --json-lines PATH      stream one JSON record per "
        "run/shard/snapshot ('-' = stdout)\n"
        "  --sample-every N       snapshot stats every N committed "
        "instructions (needs --json-lines)\n"
        "  --compare A B          diff two exports; exit 1 on "
        "regression, 2 on schema mismatch\n"
        "  --metric NAME          gating metric for --compare "
        "(default ipc)\n"
        "  --threshold X[%]       tolerated relative regression for "
        "--compare (e.g. 2%)\n"
        "  --verbose              print occupancy histograms");
    std::exit(2);
}

/**
 * Parse @p value as the integer argument of @p flag, rejecting
 * typos ("x4", "4x", "") and out-of-range values with a usage error
 * instead of std::atoi's silent 0.
 */
long long
intArg(const std::string &flag, const std::string &value,
       long long min, long long max)
{
    auto v = parseInt(value, min, max);
    if (!v)
        fatal("invalid value '%s' for %s (expected integer in "
              "[%lld, %lld])", value.c_str(), flag.c_str(), min, max);
    return *v;
}

uarch::SimConfig
findPreset(const std::string &name)
{
    for (const auto &p : kPresets)
        if (name == p.name)
            return p.make();
    fatal("unknown preset '%s' (try --list)", name.c_str());
}

vlsi::Process
findTech(const std::string &f)
{
    if (f == "0.8")
        return vlsi::Process::um0_8;
    if (f == "0.35")
        return vlsi::Process::um0_35;
    if (f == "0.18")
        return vlsi::Process::um0_18;
    fatal("unknown technology '%s' (0.8, 0.35, or 0.18)", f.c_str());
}

/** The --synthetic trace; running out of memory for it is a usage
 *  error, not an abort. */
trace::TraceBuffer
syntheticTrace(uint64_t seed, uint64_t records)
{
    trace::SyntheticParams sp;
    sp.seed = seed;
    try {
        return trace::generateSynthetic(sp, records);
    } catch (const std::bad_alloc &) {
        fatal("cannot allocate a %llu-record synthetic trace",
              (unsigned long long)records);
    }
}

/** The delay model's view of a simulated machine. */
vlsi::ClockConfig
clockConfig(const uarch::SimConfig &cfg)
{
    vlsi::ClockConfig cc;
    cc.org = cfg.style == uarch::IssueBufferStyle::Fifos
        ? vlsi::IssueOrganization::DependenceFifos
        : vlsi::IssueOrganization::CentralWindow;
    cc.issue_width = cfg.issue_width;
    cc.window_size = cfg.window_size;
    cc.num_clusters = cfg.num_clusters;
    cc.fifos_per_cluster = cfg.fifos_per_cluster;
    cc.phys_regs = cfg.phys_int_regs;
    return cc;
}

/**
 * The run's statistics as a metrics group: the simulator's registry
 * plus, when a clock estimate exists, clock/BIPS gauges so the
 * complexity-effectiveness bottom line is part of the export.
 */
StatGroup
runGroup(StatGroup g, const std::string &label, double clock_mhz)
{
    double ipc = g.value("ipc");
    g.label() = label;
    if (clock_mhz > 0.0) {
        g.addGauge("clock_mhz", "MHz",
                   "delay-model clock estimate for this organization",
                   clock_mhz);
        g.addGauge("bips", "BIPS",
                   "billions of instructions per second: IPC times "
                   "the clock estimate",
                   ipc * clock_mhz / 1000.0);
    }
    return g;
}

void
printStats(const StatGroup &g, bool verbose)
{
    statTable(g).print();
    if (verbose)
        for (const Table &h : histogramTables(g))
            h.print();
}

/** Write @p text to @p path ('-' = stdout); fatal on I/O failure. */
void
writeExport(const std::string &path, const std::string &text)
{
    std::string err;
    if (!writeTextOutput(path, text, &err))
        fatal("%s", err.c_str());
}

/**
 * Parse a --threshold argument: a fraction ("0.02") or a percentage
 * with a trailing % ("2%"). Usage error on anything else, including
 * nan and inf: a NaN threshold would make every regression test
 * false and so switch the gate off.
 */
double
thresholdArg(const std::string &value)
{
    std::string num = value;
    double scale = 1.0;
    if (!num.empty() && num.back() == '%') {
        num.pop_back();
        scale = 0.01;
    }
    char *end = nullptr;
    double v = std::strtod(num.c_str(), &end);
    if (num.empty() || end != num.c_str() + num.size() ||
        !std::isfinite(v) || v < 0.0)
        fatal("invalid value '%s' for --threshold (expected a "
              "non-negative fraction or percentage, e.g. 0.02 or 2%%)",
              value.c_str());
    return v * scale;
}

/**
 * The scalar deltas (after minus before) of one compared pair as a
 * gauge group, so the comparison renders through statTable like any
 * other export.
 */
StatGroup
deltaGroup(const StatGroup &a, const StatGroup &b)
{
    StatGroup d("cesp.compare.delta",
                b.label().empty() ? a.label() : b.label());
    for (const StatEntry &e : a.entries()) {
        if (e.kind != StatKind::Counter && e.kind != StatKind::Gauge &&
            e.kind != StatKind::Derived)
            continue;
        d.addGauge(e.name, e.unit, "after minus before",
                   b.value(e.name) - a.value(e.name));
    }
    return d;
}

/**
 * The --compare mode: load two exports (single-group JSON, a
 * statGroupListJson document, or a .jsonl stream), pair the runs by
 * position, and gate on one metric. Exit 0 = within threshold, 1 =
 * regression, 2 = load or schema error.
 */
int
runCompare(const std::string &a_path, const std::string &b_path,
           const std::string &metric, double threshold, bool quiet,
           bool verbose)
{
    std::vector<StatGroup> before, after;
    std::string err;
    if (!loadStatGroups(a_path, before, &err)) {
        std::fprintf(stderr, "cesp-sim: %s\n", err.c_str());
        return 2;
    }
    if (!loadStatGroups(b_path, after, &err)) {
        std::fprintf(stderr, "cesp-sim: %s\n", err.c_str());
        return 2;
    }

    core::CompareOptions opt;
    opt.metric = metric;
    opt.threshold = threshold;
    core::CompareResult res = core::compareGroups(before, after, opt);
    if (!res.error.empty())
        std::fprintf(stderr, "cesp-sim: --compare: %s\n",
                     res.error.c_str());

    if (!quiet) {
        Table t("Compare " + a_path + " -> " + b_path +
                " (metric: " + metric + ", threshold " +
                cell(100.0 * threshold, 2) + "%)");
        t.header({"run", "before", "after", "delta", "delta %",
                  "changed", "verdict"});
        for (const core::CompareEntry &e : res.entries) {
            if (!e.schema_note.empty()) {
                t.row({e.label.empty() ? "?" : e.label, "-", "-", "-",
                       "-", "-", e.schema_note});
                continue;
            }
            t.row({e.label.empty() ? "?" : e.label, cell(e.before, 4),
                   cell(e.after, 4), cell(e.delta, 4),
                   cell(100.0 * e.rel, 2),
                   std::to_string(e.differing),
                   e.regressed ? "REGRESSED" : "ok"});
        }
        t.print();
        // A single pair gets the full per-metric delta table; sweeps
        // get it under --verbose (one table per run).
        if (res.schema_ok && res.error.empty())
            for (size_t i = 0; i < res.entries.size(); ++i)
                if (res.entries.size() == 1 || verbose)
                    statTable(deltaGroup(before[i], after[i])).print();
    }

    if (!res.schema_ok || !res.error.empty())
        return 2;
    return res.regressed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string preset = "baseline";
    std::string workload;
    std::string asm_file;
    std::string tech;
    uint64_t synthetic = 0;
    bool all = false;
    bool sweep = false;
    unsigned jobs = 0;   // 0 = defaultJobs()
    unsigned shards = 1; // 1 = unsharded
    uint64_t warmup = 0;
    bool verbose = false;
    std::string json_path;
    std::string csv_path;
    std::string jsonl_path;
    uint64_t sample_every = 0;
    std::string compare_a, compare_b;
    bool compare = false;
    std::string metric = "ipc";
    double threshold = 0.0;

    // Shape flags are capped like --shards; validate() checks --stages
    // against the rest of the machine's latencies.
    struct Override
    {
        const char *flag;
        int max;
        int value = 0;
        bool set = false;
    };
    Override window{"--window", 65536}, fifos{"--fifos", 65536},
        depth{"--depth", 65536}, issue{"--issue", 65536},
        stages{"--stages", 1000000000}, seed{"--seed", 1000000000};
    bool perfect = false;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--list") {
            std::puts("presets:");
            for (const auto &p : kPresets)
                std::printf("  %-14s %s\n", p.name, p.description);
            std::puts("workloads:");
            for (const auto &w : workloads::allWorkloads())
                std::printf("  %-14s %s\n", w.name.c_str(),
                            w.description.c_str());
            std::puts("extra workloads (beyond the paper's seven):");
            for (const auto &w : workloads::extraWorkloads())
                std::printf("  %-14s %s\n", w.name.c_str(),
                            w.description.c_str());
            return 0;
        } else if (a == "--preset") {
            preset = next();
        } else if (a == "--workload") {
            workload = next();
        } else if (a == "--asm") {
            asm_file = next();
        } else if (a == "--tech") {
            tech = next();
        } else if (a == "--synthetic") {
            synthetic = static_cast<uint64_t>(
                intArg(a, next(), 1, kSyntheticLimit));
        } else if (a == "--all-workloads") {
            all = true;
        } else if (a == "--sweep") {
            sweep = true;
        } else if (a == "--jobs") {
            jobs = static_cast<unsigned>(intArg(a, next(), 0, 65536));
        } else if (a == "--shards") {
            shards = static_cast<unsigned>(
                intArg(a, next(), 1, 65536));
        } else if (a == "--warmup") {
            warmup = static_cast<uint64_t>(
                intArg(a, next(), 0, 1000000000000LL));
        } else if (a == "--perfect-bpred") {
            perfect = true;
        } else if (a == "--json") {
            json_path = next();
        } else if (a == "--csv") {
            csv_path = next();
        } else if (a == "--json-lines") {
            jsonl_path = next();
        } else if (a == "--sample-every") {
            sample_every = static_cast<uint64_t>(
                intArg(a, next(), 1, 1000000000000LL));
        } else if (a == "--compare") {
            compare = true;
            compare_a = next();
            compare_b = next();
        } else if (a == "--metric") {
            metric = next();
        } else if (a == "--threshold") {
            threshold = thresholdArg(next());
        } else if (a == "--verbose") {
            verbose = true;
        } else {
            bool matched = false;
            for (Override *o :
                 {&window, &fifos, &depth, &issue, &stages, &seed}) {
                if (a == o->flag) {
                    o->value =
                        static_cast<int>(intArg(a, next(), 0, o->max));
                    o->set = true;
                    matched = true;
                    break;
                }
            }
            if (!matched)
                usage();
        }
    }

    auto applyOverrides = [&](uarch::SimConfig &c) {
        if (window.set)
            c.window_size = window.value;
        if (fifos.set)
            c.fifos_per_cluster = fifos.value;
        if (depth.set)
            c.fifo_depth = depth.value;
        if (issue.set) {
            c.issue_width = issue.value;
            c.fetch_width = std::min(c.fetch_width, issue.value);
            c.rename_width = c.fetch_width;
        }
        if (stages.set)
            c.wakeup_select_stages = stages.value;
        if (seed.set)
            c.random_seed = static_cast<uint64_t>(seed.value);
        c.bpred.perfect = perfect;
        c.validate();
    };

    // Exporting to stdout must produce a machine-parseable document,
    // so the human-facing chatter (tables, clock line) is suppressed.
    const bool quiet = json_path == "-" || csv_path == "-" ||
        jsonl_path == "-";

    if (compare)
        return runCompare(compare_a, compare_b, metric, threshold,
                          quiet, verbose);

    uarch::SimConfig cfg = findPreset(preset);
    applyOverrides(cfg);

    const bool sharded = shards > 1 || warmup > 0;
    if (sample_every > 0 && jsonl_path.empty())
        fatal("--sample-every streams snapshots and needs "
              "--json-lines PATH ('-' = stdout)");

    // The one streaming sink every mode shares: run/shard/snapshot
    // records append (under a mutex) as workers finish.
    std::unique_ptr<StatStreamWriter> stream;
    if (!jsonl_path.empty()) {
        stream = std::make_unique<StatStreamWriter>(jsonl_path);
        if (!stream->ok())
            fatal("%s", stream->error().c_str());
    }

    // RunOptions shared by every simulation mode; tasks differ.
    // Each mode fills task_labels ("preset / workload") before
    // core::run so streamed records pair with the batch exports by
    // label, not just position.
    core::RunOptions ropt;
    ropt.jobs = jobs;
    ropt.shards = shards;
    ropt.warmup = warmup;
    ropt.sample_every = sample_every;
    std::vector<std::string> task_labels;
    if (stream) {
        ropt.on_result = [&](size_t task, const StatGroup &g) {
            StatStreamMeta meta;
            meta.kind = "run";
            meta.task = static_cast<int64_t>(task);
            if (task < task_labels.size()) {
                StatGroup labelled = g;
                labelled.label() = task_labels[task];
                stream->append(meta, labelled);
                return;
            }
            stream->append(meta, g);
        };
        if (sharded)
            ropt.on_shard = [&](size_t task, size_t shard,
                                const uarch::SimStats &s) {
                StatStreamMeta meta;
                meta.kind = "shard";
                meta.task = static_cast<int64_t>(task);
                meta.shard = static_cast<int64_t>(shard);
                stream->append(meta, s.group());
            };
        if (sample_every > 0)
            ropt.on_snapshot = [&](size_t task, size_t shard,
                                   const uarch::StatSnapshot &s) {
                StatStreamMeta meta;
                meta.kind = "snapshot";
                meta.task = static_cast<int64_t>(task);
                meta.shard =
                    sharded ? static_cast<int64_t>(shard) : -1;
                meta.interval = static_cast<int64_t>(s.index);
                stream->append(meta, s.cumulative, &s.delta);
            };
    }
    auto checkStream = [&]() {
        if (stream && !stream->ok())
            fatal("%s", stream->error().c_str());
    };

    if (sweep) {
        // Configuration sweep (the Fig. 13 comparison writ large):
        // every preset — with any command-line overrides applied —
        // over every built-in workload, or over one synthetic trace
        // when --synthetic N is given. The simulations fan out over
        // the worker pool; the table is identical for every --jobs
        // value.
        std::vector<uarch::SimConfig> machines;
        for (const auto &p : kPresets) {
            uarch::SimConfig c = p.make();
            applyOverrides(c);
            machines.push_back(c);
        }
        // Per-preset clock estimates: each run gets the clock/BIPS
        // gauges, as under --all-workloads.
        std::vector<double> clock_mhz(machines.size(), 0.0);
        if (!tech.empty()) {
            vlsi::ClockEstimator est(findTech(tech));
            for (size_t m = 0; m < machines.size(); ++m)
                clock_mhz[m] =
                    est.delays(clockConfig(machines[m])).clockMhz();
        }

        trace::TraceBuffer synth;
        std::vector<std::string> names;
        std::vector<trace::TraceView> traces;
        if (synthetic > 0) {
            synth = syntheticTrace(machines[0].random_seed, synthetic);
            names.push_back("synthetic");
            traces.push_back(synth);
        } else {
            for (const auto &w : workloads::allWorkloads()) {
                names.push_back(w.name);
                traces.push_back(
                    core::cachedWorkloadTraceView(w.name));
            }
        }

        std::vector<core::SweepTask> tasks;
        for (size_t m = 0; m < machines.size(); ++m)
            for (size_t w = 0; w < traces.size(); ++w) {
                tasks.push_back({machines[m], traces[w]});
                task_labels.push_back(
                    std::string(kPresets[m].name) + " / " + names[w]);
            }

        // One group per (preset, workload) pair, in task order: the
        // run's registry as-is, or — sharded — the merge of its K
        // shard windows. When the only consumer is the JSON-lines
        // stream, nothing is retained at all: results flow straight
        // from the workers to the stream in O(1) memory.
        ropt.collect_results =
            !quiet || !json_path.empty() || !csv_path.empty();
        std::vector<StatGroup> groups =
            std::move(core::run(tasks, ropt).groups);
        checkStream();
        if (!ropt.collect_results)
            return 0;

        // Per-preset aggregate over its workloads via registry
        // merge; the merged group's derived IPC is total committed
        // over total cycles, i.e. the instruction-weighted mean.
        std::vector<StatGroup> runs;
        std::vector<StatGroup> merged;
        Table t("Preset sweep: IPC per workload");
        std::vector<std::string> hdr = {"preset"};
        hdr.insert(hdr.end(), names.begin(), names.end());
        hdr.push_back("mean");
        t.header(hdr);
        for (size_t m = 0; m < machines.size(); ++m) {
            std::vector<std::string> row = {kPresets[m].name};
            size_t first = m * traces.size();
            StatGroup agg = groups[first];
            for (size_t w = 0; w < traces.size(); ++w) {
                const StatGroup &g = groups[first + w];
                row.push_back(cell(g.value("ipc"), 3));
                runs.push_back(runGroup(
                    g, std::string(kPresets[m].name) + " / " +
                           names[w], clock_mhz[m]));
                if (w > 0)
                    agg.merge(g);
            }
            agg.label() = std::string(kPresets[m].name) + " / all";
            row.push_back(cell(agg.value("ipc"), 3));
            merged.push_back(std::move(agg));
            t.row(row);
        }
        if (!quiet)
            t.print();
        if (!json_path.empty())
            writeExport(json_path, statGroupListJson(runs, merged));
        if (!csv_path.empty())
            writeExport(csv_path, statGroupListCsv(runs));
        return 0;
    }

    double clock_mhz = 0.0;
    if (!tech.empty()) {
        vlsi::ClockEstimator est(findTech(tech));
        vlsi::ClockConfig cc = clockConfig(cfg);
        vlsi::StageDelays d = est.delays(cc);
        clock_mhz = d.clockMhz();
        if (!quiet)
            std::printf("clock estimate (%sum): %.1f ps "
                        "(%s-limited), %.0f MHz\n", tech.c_str(),
                        d.criticalPs(), d.criticalStage().c_str(),
                        clock_mhz);
        if (verbose && !quiet) {
            Table ct("Structure delays");
            ct.header({"structure", "delay (ps)", "pipelinable"});
            for (const auto &sd : est.fullReport(
                     cc, cfg.dcache.size_bytes,
                     cfg.dcache.associativity, cfg.dcache.line_bytes))
                ct.row({sd.name, cell(sd.ps),
                        sd.pipelinable ? "yes" : "no (atomic)"});
            ct.print();
        }
    }

    if (!quiet)
        std::printf("machine: %s\n", cfg.name.c_str());

    if (all) {
        // One task per benchmark, all on this machine; traces
        // resolve here on the main thread.
        std::vector<core::SweepTask> tasks;
        std::vector<std::string> names;
        for (const auto &w : workloads::allWorkloads()) {
            names.push_back(w.name);
            tasks.push_back(
                {cfg, core::cachedWorkloadTraceView(w.name)});
            task_labels.push_back(cfg.name + " / " + w.name);
        }
        ropt.collect_results =
            !quiet || !json_path.empty() || !csv_path.empty();
        std::vector<StatGroup> groups =
            std::move(core::run(tasks, ropt).groups);
        checkStream();
        if (!ropt.collect_results)
            return 0;

        Table t("All workloads on " + cfg.name);
        t.header({"benchmark", "IPC", "mispredict %", "dcache miss %",
                  "x-cluster %"});
        std::vector<StatGroup> runs;
        for (size_t i = 0; i < names.size(); ++i) {
            const StatGroup &g = groups[i];
            t.row({names[i], cell(g.value("ipc"), 3),
                   cell(100.0 * g.value("mispredict_rate")),
                   cell(100.0 * g.value("dcache_miss_rate")),
                   cell(g.value("intercluster_pct"))});
            runs.push_back(runGroup(
                g, cfg.name + " / " + names[i], clock_mhz));
        }
        if (!quiet)
            t.print();
        if (!json_path.empty() || !csv_path.empty()) {
            StatGroup agg = groups.front();
            for (size_t i = 1; i < groups.size(); ++i)
                agg.merge(groups[i]);
            agg.label() = cfg.name + " / all workloads";
            if (!json_path.empty())
                writeExport(json_path, statGroupListJson(runs, {agg}));
            if (!csv_path.empty())
                writeExport(csv_path, statGroupListCsv(runs));
        }
        return 0;
    }

    // Single-simulation modes: one task on core::run (so sharding,
    // sampling, and the JSON-lines stream all ride the same wiring
    // as the sweeps), then render the registry as a table and export
    // the same group (plus clock/BIPS gauges) on request. Sharded,
    // "run" means K parallel windows merged — with the default
    // --shards 1 --warmup 0 the two paths are bit-identical
    // (StatGroup::sameValues).
    auto runOne = [&](trace::TraceView tv, const std::string &label) {
        task_labels = {cfg.name + " / " + label};
        core::RunResult r = core::run({{cfg, tv}}, ropt);
        checkStream();
        StatGroup g = runGroup(r.groups.at(0),
                               cfg.name + " / " + label, clock_mhz);
        if (!quiet)
            printStats(g, verbose);
        if (!json_path.empty())
            writeExport(json_path, g.toJson());
        if (!csv_path.empty())
            writeExport(csv_path, g.toCsv());
    };

    if (!workload.empty()) {
        runOne(core::cachedWorkloadTraceView(workload), workload);
        return 0;
    }
    if (!asm_file.empty()) {
        std::ifstream in(asm_file);
        if (!in)
            fatal("cannot open '%s'", asm_file.c_str());
        std::stringstream ss;
        ss << in.rdbuf();
        trace::TraceBuffer buf;
        // A sink-less first pass proves the program halts before a
        // single record is buffered: a runaway loop would otherwise
        // fill memory with the instruction limit's worth of records.
        if (!func::runProgram(ss.str(), kAsmInstructionLimit).halted)
            fatal("%s did not halt within %llu instructions",
                  asm_file.c_str(), kAsmInstructionLimit);
        func::runProgram(ss.str(), kAsmInstructionLimit, &buf);
        runOne(buf, asm_file);
        return 0;
    }
    if (synthetic > 0) {
        runOne(syntheticTrace(cfg.random_seed, synthetic), "synthetic");
        return 0;
    }
    usage();
}
