#include "context.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "measure.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench {

namespace {

/** CPUs the calling process may run on (>= 1). */
unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    unsigned n = 0;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        n = static_cast<unsigned>(CPU_COUNT(&set));
    unsigned hw = std::thread::hardware_concurrency();
    if (n == 0 || (hw != 0 && hw < n))
        n = hw;
    return n == 0 ? 1 : n;
}

/** The calibration loop: 2M steps of a predictor-and-cache-like
 *  kernel over fresh tables (identical work on every call). The
 *  result is returned so the loop cannot be elided. */
uint64_t
calibrationLoop()
{
    static std::vector<uint8_t> counters(1 << 16);
    static std::vector<uint32_t> tags(1 << 18);
    std::fill(counters.begin(), counters.end(), uint8_t{1});
    std::fill(tags.begin(), tags.end(), 0u);
    uint64_t x = 88172645463325252ULL, useful = 0;
    uint32_t history = 0;
    for (int i = 0; i < 2'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint32_t pc = static_cast<uint32_t>(x & 0xffff);
        uint8_t &c = counters[(pc ^ history) & 0xffff];
        bool taken = ((x >> 20) & 7) < 5;
        bool predicted = c >= 2;
        if (taken) {
            if (c < 3)
                ++c;
        } else if (c) {
            --c;
        }
        history = (history << 1) | taken;
        uint32_t line = (static_cast<uint32_t>(x >> 32) & 0x3fffff) >> 5;
        uint32_t &tag = tags[line & ((1u << 18) - 1)];
        if (tag == line)
            ++useful;
        else
            tag = line;
        useful += predicted == taken;
    }
    return useful;
}

} // namespace

double
calibrationMs()
{
    static volatile uint64_t sink = 0;
    double t0 = wallNow();
    sink = sink + calibrationLoop();
    return (wallNow() - t0) * 1e3;
}

RunContext
gatherContext(const std::string &git_sha)
{
    RunContext ctx;
    ctx.git_sha = git_sha.empty() ? "unknown" : git_sha;
    ctx.build_type = PERFBENCH_BUILD_TYPE;
    ctx.cxx_flags = PERFBENCH_CXX_FLAGS;
#if PERFBENCH_LTO
    ctx.lto = true;
#endif
    ctx.nproc = usableCpus();
    double load[1] = {0.0};
    if (getloadavg(load, 1) == 1)
        ctx.loadavg1 = load[0];
    std::vector<double> ms;
    for (int i = 0; i < 3; ++i)
        ms.push_back(calibrationMs());
    ctx.calib_ms = median(ms);
    return ctx;
}

std::string
releaseBuildProblem(const RunContext &ctx)
{
    if (ctx.build_type != "Release")
        return "build type is '" + ctx.build_type + "', not Release";
    if (ctx.cxx_flags.find("-O3") == std::string::npos)
        return "compiled without -O3 (flags '" + ctx.cxx_flags + "')";
#ifndef NDEBUG
    return "compiled without -DNDEBUG";
#endif
    if (!ctx.lto)
        return "compiled without link-time optimization";
    return {};
}

std::string
contextJson(const RunContext &ctx)
{
    cesp::JsonWriter w(-1);
    w.beginObject();
    w.key("git_sha");
    w.value(ctx.git_sha);
    w.key("build_type");
    w.value(ctx.build_type);
    w.key("cxx_flags");
    w.value(ctx.cxx_flags);
    w.key("lto");
    w.value(ctx.lto);
    w.key("nproc");
    w.value(static_cast<uint64_t>(ctx.nproc));
    w.key("loadavg1");
    w.value(ctx.loadavg1);
    w.key("calib_ms");
    w.value(ctx.calib_ms);
    w.endObject();
    return w.str();
}

} // namespace perfbench
