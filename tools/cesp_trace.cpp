/**
 * @file
 * cesp-trace: inspect dynamic traces. Capture a workload or assembly
 * file to a binary .trc file (format v3), analyze an existing one —
 * mix, dependence statistics, dataflow ILP limits, and an optional
 * disassembled listing — or check a trace file's integrity:
 *
 *   cesp-trace --capture compress --out compress.trc
 *   cesp-trace --analyze compress.trc
 *   cesp-trace --capture-asm kernel.s --out k.trc --list 20
 *   cesp-trace --analyze k.trc --window 64 --issue 8
 *   cesp-trace verify compress.trc     # header/CRC integrity check
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/parse.hpp"
#include "common/table.hpp"
#include "func/emulator.hpp"
#include "isa/disasm.hpp"
#include "trace/analysis.hpp"
#include "trace/mmap_source.hpp"
#include "trace/tracefile.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;

namespace {

/** Emulation bound for --capture-asm programs. */
constexpr unsigned long long kAsmInstructionLimit = 100000000ULL;

[[noreturn]] void
usage()
{
    std::puts(
        "usage: cesp-trace [options]\n"
        "       cesp-trace verify FILE\n"
        "  --capture NAME      capture a built-in workload's trace\n"
        "  --capture-asm FILE  assemble and capture FILE's trace (it\n"
        "                      must halt within 100000000\n"
        "                      instructions)\n"
        "  --out FILE          where to write the .trc (default\n"
        "                      trace.trc)\n"
        "  --analyze FILE      analyze an existing .trc\n"
        "  --window N          finite-window ILP limit (default 64)\n"
        "  --issue N           finite-width ILP limit (default 8)\n"
        "  --list N            print the first N instructions\n"
        "  --json PATH         write the analysis as JSON ('-' = "
        "stdout)\n"
        "  --csv PATH          write the analysis as CSV ('-' = "
        "stdout)\n"
        "subcommands:\n"
        "  verify FILE         check header, record count, and\n"
        "                      payload CRC; exit 0 iff intact");
    std::exit(2);
}

/** Checked integer argument: reject atoi's silent-0 typo handling. */
int
intArg(const std::string &flag, const std::string &value, int min,
       int max)
{
    auto v = cesp::parseInt(value, min, max);
    if (!v)
        fatal("invalid value '%s' for %s (expected integer in "
              "[%d, %d])", value.c_str(), flag.c_str(), min, max);
    return static_cast<int>(*v);
}

/**
 * `cesp-trace verify FILE`: run the same integrity gate the
 * simulator's cache path runs, and say what failed. Exit status 0
 * only for an intact file.
 */
int
verifyCommand(const std::string &path)
{
    trace::MmapTraceSource src;
    trace::TraceIoResult r = src.open(path);
    if (r.ok()) {
        std::printf("%s: v%u OK, %zu records (%zu bytes), CRC valid\n",
                    path.c_str(), trace::kTraceFormatVersion,
                    src.size(),
                    trace::kTraceHeaderBytes +
                        src.size() * trace::kTraceRecordBytes);
        return 0;
    }
    std::fprintf(stderr, "%s: CORRUPT: %s (%s)\n", path.c_str(),
                 trace::traceIoStatusName(r.status),
                 r.detail.c_str());
    return 1;
}

/**
 * The full analysis as a metrics group: the instruction-mix
 * counters with derived percentages, the register-dependence
 * distance distribution, and the dataflow ILP limits. Same schema
 * conventions (and JSON/CSV exporters) as the simulator's group.
 */
StatGroup
analysisGroup(trace::TraceView trace, int window, int issue,
              const std::string &label)
{
    trace::TraceMix mix = trace::computeMix(trace);
    trace::DependenceStats dep = trace::analyzeDependences(trace);
    auto unlimited = trace::dataflowSchedule(trace);
    trace::ScheduleLimits lim;
    lim.window = window;
    lim.issue_width = issue;
    auto limited = trace::dataflowSchedule(trace, lim);

    StatGroup g("cesp.trace_analysis", label);
    g.addCounter("instructions", "instructions",
                 "Dynamic instructions in the trace", mix.total);
    struct
    {
        const char *name;
        const char *desc;
        uint64_t count;
    } classes[] = {
        {"loads", "Load instructions", mix.loads},
        {"stores", "Store instructions", mix.stores},
        {"cond_branches", "Conditional branches", mix.cond_branches},
        {"uncond_control", "Unconditional control transfers",
         mix.uncond},
        {"int_alu", "Integer ALU operations", mix.int_alu},
        {"other", "All other instructions", mix.other},
    };
    for (const auto &c : classes) {
        g.addCounter(c.name, "instructions", c.desc, c.count);
        g.addDerived(std::string(c.name) + "_pct", "%",
                     std::string(c.desc) + " as a share of the trace",
                     c.name, "instructions", 100.0);
    }

    const Sample &dist = dep.distance;
    g.addCounter("dependence_distance_count", "operands",
                 "Source operands with an in-trace producer",
                 dist.count());
    g.addGauge("dependence_distance_mean", "instructions",
               "Mean distance from a source operand to its producer",
               dist.mean());
    g.addGauge("dependence_distance_min", "instructions",
               "Shortest source-to-producer distance", dist.min());
    g.addGauge("dependence_distance_max", "instructions",
               "Longest source-to-producer distance", dist.max());
    g.addGauge("adjacent_pct", "%",
               "Instructions whose nearest producer is the "
               "immediately preceding instruction",
               100.0 * dep.adjacent_frac);
    g.addGauge("independent_pct", "%",
               "Instructions with no in-trace register producer",
               100.0 * dep.independent_frac);
    g.addCounter("critical_path", "ops",
                 "Longest register dependence chain",
                 dep.critical_path);
    g.addGauge("dataflow_ipc_unbounded", "inst/cycle",
               "Dataflow-limit IPC with no window or width bound",
               unlimited.ipc);
    g.addGauge(strprintf("dataflow_ipc_w%d_i%d", window, issue),
               "inst/cycle",
               strprintf("Dataflow IPC bounded by a %d-entry window "
                         "and %d-wide issue", window, issue),
               limited.ipc);
    return g;
}

/** Print the analysis tables of @p g (an analysisGroup of @p trace)
 *  and the first @p list records of @p trace. */
void
printAnalysis(const StatGroup &g, trace::TraceView trace, int window,
              int issue, int list)
{
    const uint64_t total = g.counter("instructions");
    auto pct = [&](const char *name) {
        uint64_t n = g.counter(name);
        return cell(100.0 * (total ? static_cast<double>(n) /
                                         static_cast<double>(total)
                                   : 0.0));
    };
    Table m("Instruction mix");
    m.header({"class", "count", "%"});
    m.row({"loads", cell(g.counter("loads")), pct("loads")});
    m.row({"stores", cell(g.counter("stores")), pct("stores")});
    m.row({"cond branches", cell(g.counter("cond_branches")),
           pct("cond_branches")});
    m.row({"uncond control", cell(g.counter("uncond_control")),
           pct("uncond_control")});
    m.row({"int alu", cell(g.counter("int_alu")), pct("int_alu")});
    m.row({"other", cell(g.counter("other")), pct("other")});
    m.print();

    const std::string limited =
        strprintf("dataflow_ipc_w%d_i%d", window, issue);
    Table a("Dependence / ILP analysis");
    a.header({"quantity", "value"});
    a.row({"instructions", cell(total)});
    a.row({"mean dependence distance",
           cell(g.value("dependence_distance_mean"), 2)});
    a.row({"adjacent-producer %", cell(g.value("adjacent_pct"))});
    a.row({"independent %", cell(g.value("independent_pct"))});
    a.row({"critical path (ops)", cell(g.counter("critical_path"))});
    a.row({"dataflow IPC (unbounded)",
           cell(g.value("dataflow_ipc_unbounded"), 2)});
    a.row({strprintf("dataflow IPC (win=%d, iw=%d)", window, issue),
           cell(g.value(limited), 2)});
    a.print();

    for (int i = 0; i < list && i < static_cast<int>(trace.count);
         ++i) {
        const trace::TraceOp &op = trace[static_cast<size_t>(i)];
        std::printf("%6d  %08x  %-8s%s%s\n", i, op.pc,
                    isa::opInfo(op.op).mnemonic,
                    op.isCondBranch()
                        ? (op.taken ? "  taken" : "  not-taken") : "",
                    op.isLoad() || op.isStore()
                        ? strprintf("  @0x%08x", op.mem_addr).c_str()
                        : "");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string capture, capture_asm, out = "trace.trc", analyze_file;
    std::string json_path, csv_path;
    int window = 64, issue = 8, list = 0;

    if (argc >= 2 && std::strcmp(argv[1], "verify") == 0) {
        if (argc != 3)
            usage();
        return verifyCommand(argv[2]);
    }

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--capture")
            capture = next();
        else if (a == "--capture-asm")
            capture_asm = next();
        else if (a == "--out")
            out = next();
        else if (a == "--analyze")
            analyze_file = next();
        else if (a == "--window")
            window = intArg(a, next(), 1, 1000000);
        else if (a == "--issue")
            issue = intArg(a, next(), 1, 1024);
        else if (a == "--list")
            list = intArg(a, next(), 0, 1000000000);
        else if (a == "--json")
            json_path = next();
        else if (a == "--csv")
            csv_path = next();
        else
            usage();
    }

    std::string trc = analyze_file, label = analyze_file;
    const bool capturing = !capture.empty() || !capture_asm.empty();
    if (capturing) {
        trc = out;
        label = capture.empty() ? capture_asm : capture;
        // Stream the trace straight into the file, as the trace cache
        // does: no whole trace is held in memory.
        const workloads::Workload *w = nullptr;
        std::string program;
        if (!capture.empty()) {
            w = &workloads::workload(capture);
        } else {
            std::ifstream in(capture_asm);
            if (!in)
                fatal("cannot open '%s'", capture_asm.c_str());
            std::stringstream ss;
            ss << in.rdbuf();
            program = ss.str();
            // A sink-less first pass proves the program halts before
            // the output file is created: a runaway loop would
            // otherwise write the instruction limit's worth of
            // records.
            if (!func::runProgram(program, kAsmInstructionLimit).halted)
                fatal("%s did not halt within %llu instructions",
                      capture_asm.c_str(), kAsmInstructionLimit);
        }
        trace::TraceFileWriter writer;
        trace::TraceIoResult saved = writer.open(out);
        if (saved.ok()) {
            if (w)
                workloads::streamTraceOf(*w, writer);
            else
                func::runProgram(program, kAsmInstructionLimit,
                                 &writer);
            saved = writer.finish();
        }
        if (!saved.ok())
            fatal("cannot write '%s': %s (%s)", out.c_str(),
                  trace::traceIoStatusName(saved.status),
                  saved.detail.c_str());
    } else if (analyze_file.empty()) {
        usage();
    }

    // Analyse the file through the reader every simulation uses, so a
    // capture reports exactly the bytes it wrote and verified.
    trace::MmapTraceSource src;
    trace::TraceIoResult opened = src.open(trc);
    if (!opened.ok())
        fatal("cannot read '%s': %s (%s)", trc.c_str(),
              trace::traceIoStatusName(opened.status),
              opened.detail.c_str());
    StatGroup g = analysisGroup(src, window, issue, label);

    // A stdout export must stay machine-parseable: suppress the
    // human-facing tables and progress lines.
    if (json_path != "-" && csv_path != "-") {
        if (capturing)
            std::printf("wrote %zu instructions to %s\n", src.size(),
                        out.c_str());
        else
            std::printf("%s: %zu instructions\n", trc.c_str(),
                        src.size());
        printAnalysis(g, src, window, issue, list);
    }
    std::string err;
    if (!json_path.empty() &&
        !writeTextOutput(json_path, g.toJson(), &err))
        fatal("%s", err.c_str());
    if (!csv_path.empty() &&
        !writeTextOutput(csv_path, g.toCsv(), &err))
        fatal("%s", err.c_str());
    return 0;
}
