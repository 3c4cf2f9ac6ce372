/**
 * @file
 * cesp-sim: command-line driver for the library. Pick a machine
 * preset (optionally setting its fields), point it at a
 * built-in workload, an assembly file, or a synthetic trace, and get
 * the timing statistics — plus the delay-model clock estimate so a
 * run reports complexity-effectiveness (BIPS), not just IPC.
 *
 *   cesp-sim --list
 *   cesp-sim --preset dep8x8 --workload compress
 *   cesp-sim --preset baseline --all-workloads --tech 0.18
 *   cesp-sim --preset clustered2x4 --asm my_kernel.s
 *   cesp-sim --preset baseline --synthetic 1000000 --set window_size=32
 *   cesp-sim --sweep --jobs 4
 *   cesp-sim --workload compress --shards 8 --warmup 50000
 *   cesp-sim --sweep --json-lines sweep.jsonl
 *   cesp-sim --workload perl --sample-every 50000 --json-lines -
 *   cesp-sim --compare before.jsonl after.jsonl --threshold 2%
 *
 * Every simulation mode is one machines x traces grid on the
 * parallel sweep engine (core::run): the machines are every preset
 * under --sweep, else the chosen one; the traces are every workload,
 * or the one --workload, --asm program or --synthetic trace. Only
 * the table and the export document depend on the mode. --jobs N
 * picks the worker count (default: the CPUs this process may run on,
 * see core::defaultJobs); output is identical for any --jobs value.
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
 * (e.g. '2%'), 2 on load/schema errors or a verdict stdout could
 * not take — a CI perf gate.
 */

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <new>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "core/machine.hpp"
#include "core/presets.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "func/emulator.hpp"
#include "trace/mmap_source.hpp"
#include "trace/synthetic.hpp"
#include "vlsi/clock.hpp"
#include "vlsi/technology.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;

namespace {

/** Largest --synthetic trace (records; 16 bytes each in memory). */
constexpr long long kSyntheticLimit = 1000000000LL;

[[noreturn]] void
usage()
{
    std::printf(
        "usage: cesp-sim [options]\n"
        "  --list                 list presets and workloads\n"
        "  --preset NAME          machine preset (default baseline)\n"
        "  --workload NAME        run a built-in benchmark\n"
        "  --all-workloads        run every built-in benchmark\n"
        "  --sweep                run every preset over every "
        "benchmark\n"
        "  --jobs N               parallel simulations, in every "
        "mode\n"
        "                         (default: every CPU this process "
        "may use)\n"
        "  --shards K             split each trace into K parallel "
        "windows\n"
        "  --warmup N             per-shard warmup records (stats "
        "discarded)\n"
        "  --asm FILE             assemble and run FILE (it must "
        "halt\n"
        "                         within %llu instructions)\n"
        "  --synthetic N          run an N-instruction synthetic "
        "trace\n"
        "  --tech F               clock estimate feature size "
        "(0.8|0.35|0.18)\n"
        "  --set FIELD=VALUE      set a machine field by its C++ "
        "path (repeatable),\n"
        "                         e.g. window_size=32 or "
        "dcache.miss_latency=12\n"
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
        "  --threshold X[%%]       tolerated relative regression for "
        "--compare (e.g. 2%%)\n"
        "  --verbose              print occupancy histograms\n",
        static_cast<unsigned long long>(func::kAsmInstructionLimit));
    std::exit(2);
}

uarch::SimConfig
findPreset(const std::string &name)
{
    for (const core::NamedPreset &p : core::sweepPresets())
        if (name == p.name)
            return p.make();
    fatal("unknown preset '%s' (try --list)", name.c_str());
}

vlsi::Process
findTech(const std::string &f)
{
    for (vlsi::Process p : vlsi::allProcesses())
        if (f + "um" == vlsi::technology(p).name)
            return p;
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

/**
 * The --asm trace: publish @p program's trace under a fresh name in
 * the temporary directory and map it (trace::publishTrace, as
 * `cesp-trace --capture-asm` does), so no whole trace is held in
 * memory. The file is unlinked once mapped (the mapping keeps its
 * pages) or when any step fails, which is fatal and names the
 * TraceIoResult status.
 */
trace::MmapTraceSource
streamAsmTrace(const std::string &program, const std::string &label)
{
    std::error_code ec;
    std::filesystem::path dir =
        std::filesystem::temp_directory_path(ec);
    if (ec)
        fatal("no temporary directory for the trace of %s: %s",
              label.c_str(), ec.message().c_str());
    std::string path = (dir / "cesp-sim-XXXXXX").string();
    int fd = ::mkstemp(path.data());
    if (fd < 0)
        fatal("cannot create %s: %s", path.c_str(),
              std::strerror(errno));
    ::close(fd);

    trace::MmapTraceSource src;
    trace::TraceIoResult r = trace::publishTrace(
        path,
        [&](trace::TraceSink &sink) {
            func::runProgram(program, func::kAsmInstructionLimit, &sink);
        },
        src);
    std::filesystem::remove(path, ec);
    if (!r.ok())
        fatal("cannot stream the trace of %s: %s (%s)", label.c_str(),
              trace::traceIoStatusName(r.status), r.detail.c_str());
    return src;
}

/**
 * The run's statistics as a metrics group: the simulator's registry
 * plus, when a clock estimate exists, clock/BIPS gauges so the
 * complexity-effectiveness bottom line is part of the export.
 */
StatGroup
runGroup(StatGroup g, const std::string &label, double clock_mhz)
{
    g.label() = label;
    if (clock_mhz > 0.0)
        core::addClockGauges(g, clock_mhz);
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
        if (e.kind == StatKind::Histogram)
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
 * regression, 2 = load or schema error, or a short write to stdout.
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

    // A verdict that did not reach stdout is no verdict: exit 2, as
    // for unloadable input, since 1 already means "regression".
    checkStdout(2);
    if (!res.schema_ok || !res.error.empty())
        return 2;
    return res.regressed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string preset = "baseline";
    bool preset_given = false;
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

    std::vector<std::string> sets; // FIELD=VALUE, for every machine

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--list") {
            std::puts("presets:");
            for (const core::NamedPreset &p : core::sweepPresets())
                std::printf("  %-14s %s\n", p.name, p.description);
            std::puts("workloads:");
            for (const auto &w : workloads::allWorkloads())
                std::printf("  %-14s %s\n", w.name.c_str(),
                            w.description.c_str());
            std::puts("extra workloads (beyond the paper's seven):");
            for (const auto &w : workloads::extraWorkloads())
                std::printf("  %-14s %s\n", w.name.c_str(),
                            w.description.c_str());
            checkStdout();
            return 0;
        } else if (a == "--preset") {
            preset = next();
            preset_given = true;
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
        } else if (a == "--set") {
            sets.push_back(next());
            if (sets.back().find('=') == std::string::npos)
                usage();
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
            usage();
        }
    }

    auto applySets = [&](uarch::SimConfig &c) {
        for (const std::string &kv : sets)
            uarch::setField(c, kv.substr(0, kv.find('=')),
                            kv.substr(kv.find('=') + 1));
        c.validate();
    };

    // Exporting to stdout must produce a machine-parseable document,
    // so the human-facing chatter (tables, clock line) is suppressed.
    const bool quiet = json_path == "-" || csv_path == "-" ||
        jsonl_path == "-";

    if (compare)
        return runCompare(compare_a, compare_b, metric, threshold,
                          quiet, verbose);

    // One trace source; --sweep brings its own machines and takes
    // only --synthetic.
    const int sources = int(!workload.empty()) + int(!asm_file.empty()) +
        int(synthetic > 0) + int(all);
    if (sources > 1 || (sweep && sources == 1 && synthetic == 0)) {
        std::fprintf(stderr,
                     "cesp-sim: pick one of --workload, --asm, "
                     "--synthetic and --all-workloads; --sweep takes "
                     "only --synthetic\n");
        usage();
    }
    if (sweep && preset_given) {
        std::fprintf(stderr, "cesp-sim: --sweep runs every preset; it "
                             "takes no --preset\n");
        usage();
    }

    uarch::SimConfig cfg = findPreset(preset);
    applySets(cfg);

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

    // The machines: every preset under --sweep (the Fig. 13
    // comparison writ large), with every --set applied; else the
    // chosen one.
    std::vector<uarch::SimConfig> machines;
    std::vector<std::string> machine_names;
    if (sweep) {
        for (const core::NamedPreset &p : core::sweepPresets()) {
            uarch::SimConfig c = p.make();
            applySets(c);
            machines.push_back(c);
            machine_names.push_back(p.name);
        }
    } else {
        machines = {cfg};
        machine_names = {cfg.name};
    }

    // The traces: one --synthetic, --workload or --asm trace, else
    // every built-in workload (resolved here on the main thread).
    trace::TraceBuffer synth;
    trace::MmapTraceSource asm_trace;
    std::vector<std::string> names;
    std::vector<trace::TraceView> traces;
    if (synthetic > 0) {
        synth = syntheticTrace(machines[0].random_seed, synthetic);
        names.push_back("synthetic");
        traces.push_back(synth);
    } else if (!workload.empty()) {
        names.push_back(workload);
        traces.push_back(core::cachedWorkloadTraceView(workload));
    } else if (!asm_file.empty()) {
        asm_trace =
            streamAsmTrace(func::loadHaltingProgram(asm_file), asm_file);
        names.push_back(asm_file);
        traces.push_back(asm_trace);
    } else if (sweep || all) {
        for (const auto &w : workloads::allWorkloads()) {
            names.push_back(w.name);
            traces.push_back(core::cachedWorkloadTraceView(w.name));
        }
    } else {
        usage();
    }

    // Per-machine clock estimates give each run the clock/BIPS
    // gauges; a single machine also reports its estimate. Nothing is
    // printed before the traces resolve, so a run that cannot load
    // its trace leaves stdout empty.
    std::vector<double> clock_mhz(machines.size(), 0.0);
    if (!tech.empty()) {
        vlsi::ClockEstimator est(findTech(tech));
        for (size_t m = 0; m < machines.size(); ++m)
            clock_mhz[m] =
                est.delays(core::clockConfig(machines[m])).clockMhz();
        if (!sweep && !quiet) {
            vlsi::ClockConfig cc = core::clockConfig(cfg);
            vlsi::StageDelays d = est.delays(cc);
            std::printf("clock estimate (%sum): %.1f ps "
                        "(%s-limited), %.0f MHz\n", tech.c_str(),
                        d.criticalPs(), d.criticalStage().c_str(),
                        clock_mhz[0]);
            if (verbose) {
                Table ct("Structure delays");
                ct.header({"structure", "delay (ps)", "pipelinable"});
                for (const auto &sd : est.fullReport(
                         cc, cfg.dcache.size_bytes,
                         cfg.dcache.associativity,
                         cfg.dcache.line_bytes))
                    ct.row({sd.name, cell(sd.ps),
                            sd.pipelinable ? "yes" : "no (atomic)"});
                ct.print();
            }
        }
    }
    if (!sweep && !quiet)
        std::printf("machine: %s\n", cfg.name.c_str());

    // One task per (machine, trace) pair, machine-major, labelled
    // "machine / trace" so streamed records pair with the batch
    // exports by label, not just position.
    std::vector<core::SweepTask> tasks;
    std::vector<std::string> task_labels;
    for (size_t m = 0; m < machines.size(); ++m)
        for (size_t w = 0; w < traces.size(); ++w) {
            tasks.push_back({machines[m], traces[w]});
            task_labels.push_back(machine_names[m] + " / " + names[w]);
        }

    core::RunOptions ropt;
    ropt.jobs = jobs;
    ropt.shards = shards;
    ropt.warmup = warmup;
    ropt.sample_every = sample_every;
    // When the only consumer is the JSON-lines stream, nothing is
    // retained: results flow straight from the workers to the stream
    // in O(1) memory.
    ropt.collect_results =
        !quiet || !json_path.empty() || !csv_path.empty();
    if (stream) {
        ropt.on_result = [&](size_t task, const StatGroup &g) {
            StatStreamMeta meta;
            meta.kind = "run";
            meta.task = static_cast<int64_t>(task);
            StatGroup labelled = g;
            labelled.label() = task_labels[task];
            stream->append(meta, labelled);
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

    // One group per task, in task order: the run's registry as-is,
    // or — sharded — the merge of its K shard windows (with the
    // default --shards 1 --warmup 0 the two are bit-identical).
    std::vector<StatGroup> groups =
        std::move(core::run(tasks, ropt).groups);
    if (stream && !stream->ok())
        fatal("%s", stream->error().c_str());
    if (!ropt.collect_results) {
        checkStdout();
        return 0;
    }
    std::vector<StatGroup> runs;
    for (size_t t = 0; t < groups.size(); ++t)
        runs.push_back(runGroup(groups[t], task_labels[t],
                                clock_mhz[t / traces.size()]));

    if (!sweep && !all) {
        if (!quiet)
            printStats(runs[0], verbose);
        if (!json_path.empty())
            writeExport(json_path, runs[0].toJson());
        if (!csv_path.empty())
            writeExport(csv_path, runs[0].toCsv());
        checkStdout();
        return 0;
    }

    // Per-machine aggregate over its traces via registry merge; the
    // merged group's derived IPC is total committed over total
    // cycles, i.e. the instruction-weighted mean.
    std::vector<StatGroup> merged;
    for (size_t m = 0; m < machines.size(); ++m) {
        size_t first = m * traces.size();
        StatGroup agg = groups[first];
        for (size_t w = 1; w < traces.size(); ++w)
            agg.merge(groups[first + w]);
        agg.label() =
            machine_names[m] + (sweep ? " / all" : " / all workloads");
        merged.push_back(std::move(agg));
    }
    if (!quiet) {
        Table t(sweep ? "Preset sweep: IPC per workload"
                      : "All workloads on " + cfg.name);
        if (sweep) {
            std::vector<std::string> hdr = {"preset"};
            hdr.insert(hdr.end(), names.begin(), names.end());
            hdr.push_back("mean");
            t.header(hdr);
            for (size_t m = 0; m < machines.size(); ++m) {
                std::vector<std::string> row = {machine_names[m]};
                for (size_t w = 0; w < traces.size(); ++w)
                    row.push_back(cell(
                        groups[m * traces.size() + w].value("ipc"), 3));
                row.push_back(cell(merged[m].value("ipc"), 3));
                t.row(row);
            }
        } else {
            t.header({"benchmark", "IPC", "mispredict %",
                      "dcache miss %", "x-cluster %"});
            for (size_t w = 0; w < traces.size(); ++w) {
                const StatGroup &g = groups[w];
                t.row({names[w], cell(g.value("ipc"), 3),
                       cell(100.0 * g.value("mispredict_rate")),
                       cell(100.0 * g.value("dcache_miss_rate")),
                       cell(g.value("intercluster_pct"))});
            }
        }
        t.print();
    }
    if (!json_path.empty())
        writeExport(json_path, statGroupListJson(runs, merged));
    if (!csv_path.empty())
        writeExport(csv_path, statGroupListCsv(runs));
    checkStdout();
    return 0;
}
