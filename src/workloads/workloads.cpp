/**
 * @file
 * Workload registry and trace capture.
 */

#include "workloads/workloads.hpp"

#include "common/logging.hpp"
#include "func/emulator.hpp"

namespace cesp::workloads {

// Kernel sources and golden outputs, defined in the per-benchmark
// translation units.
extern const char *kCompressSource;
extern const char *kCompressGolden;
extern const char *kGccSource;
extern const char *kGccGolden;
extern const char *kGoSource;
extern const char *kGoGolden;
extern const char *kLiSource;
extern const char *kLiGolden;
extern const char *kM88ksimSource;
extern const char *kM88ksimGolden;
extern const char *kPerlSource;
extern const char *kPerlGolden;
extern const char *kVortexSource;
extern const char *kVortexGolden;
extern const char *kTomcatvSource;
extern const char *kTomcatvGolden;

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> all = {
        {"compress", "LZW compression with hash-probe dictionary",
         kCompressSource, 4000000, kCompressGolden},
        {"gcc", "lexer with character-class dispatch and token hashing",
         kGccSource, 4000000, kGccGolden},
        {"go", "recursive board search with pruning",
         kGoSource, 4000000, kGoGolden},
        {"li", "cons-cell list interpreter (pointer chasing)",
         kLiSource, 4000000, kLiGolden},
        {"m88ksim", "instruction-set simulator dispatch loop",
         kM88ksimSource, 4000000, kM88ksimGolden},
        {"perl", "string hashing and associative arrays",
         kPerlSource, 4000000, kPerlGolden},
        {"vortex", "object database record copies and index lookups",
         kVortexSource, 4000000, kVortexGolden},
    };
    return all;
}

const std::vector<Workload> &
extraWorkloads()
{
    static const std::vector<Workload> extra = {
        {"tomcatv", "single-precision Jacobi stencil (FP pipeline)",
         kTomcatvSource, 4000000, kTomcatvGolden},
    };
    return extra;
}

const Workload &
workload(const std::string &name)
{
    for (const Workload &w : allWorkloads())
        if (w.name == name)
            return w;
    for (const Workload &w : extraWorkloads())
        if (w.name == name)
            return w;
    fatal("unknown workload '%s'", name.c_str());
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const Workload &w : allWorkloads())
        names.push_back(w.name);
    return names;
}

void
streamTraceOf(const Workload &w, trace::TraceSink &sink)
{
    func::ExecResult r =
        func::runProgram(w.source, w.max_instructions, &sink);
    if (!r.halted)
        fatal("workload %s did not halt within %llu instructions",
              w.name.c_str(),
              static_cast<unsigned long long>(w.max_instructions));
    if (!w.expected_console.empty() &&
        r.console != w.expected_console)
        fatal("workload %s checksum mismatch: got '%s', want '%s'",
              w.name.c_str(), r.console.c_str(),
              w.expected_console.c_str());
}

trace::TraceBuffer
traceOf(const Workload &w)
{
    trace::TraceBuffer buf;
    streamTraceOf(w, buf);
    return buf;
}

} // namespace cesp::workloads
