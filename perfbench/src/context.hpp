/**
 * @file
 * Run context recorded beside every result, so host noise can be
 * read next to the numbers it disturbs: source revision, build type
 * and flags, usable CPUs, load average, and the time of a fixed
 * calibration loop owned by the benchmark.
 *
 * The calibration loop is built to be disturbed the way the
 * simulator is: it is a branchy, table-driven loop (a 64 KB 2-bit
 * counter table indexed by pc ^ history and a 1 MB tag array), not
 * an ALU chain. On a shared host, neighbours slow both by nearly the
 * same factor (window-level correlation 0.94 with a fixed
 * simulation, against 0.38 for an xorshift chain), which is what
 * lets the *_norm metrics scale host times to a reference host.
 */

#ifndef PERFBENCH_CONTEXT_HPP
#define PERFBENCH_CONTEXT_HPP

#include <string>

namespace perfbench {

struct RunContext
{
    std::string git_sha;
    std::string build_type;
    std::string cxx_flags;
    bool lto = false;
    unsigned nproc = 1;      //!< CPUs this process may run on
    double loadavg1 = 0.0;   //!< 1-minute load average at start
    double calib_ms = 0.0;   //!< median of the calibration loop
};

/** Calibration-loop time, in ms, of the reference host the *_norm
 *  metrics are scaled to. */
constexpr double kReferenceCalibMs = 25.0;

/** @p seconds measured while the calibration loop took @p calib_ms,
 *  scaled to the reference host. */
inline double
atReferenceHost(double seconds, double calib_ms)
{
    return calib_ms > 0.0 ? seconds * kReferenceCalibMs / calib_ms : 0.0;
}

/** Run the calibration loop once (fixed work, ~25 ms); wall ms. */
double calibrationMs();

/** Gather the context (runs the calibration loop 3 times). */
RunContext gatherContext(const std::string &git_sha);

/**
 * Empty when the binary was built as the `release` preset builds
 * (Release, -O3 -DNDEBUG, LTO); otherwise why it was not. Numbers
 * from any other build are refused.
 */
std::string releaseBuildProblem(const RunContext &ctx);

/** The context as one compact JSON object. */
std::string contextJson(const RunContext &ctx);

} // namespace perfbench

#endif // PERFBENCH_CONTEXT_HPP
