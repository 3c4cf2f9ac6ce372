/**
 * @file
 * Host-time arithmetic shared by every workload: order statistics,
 * rates, and process resource readings. Every rate divides by
 * steady_clock wall time; CPU time is reported only as its own
 * metric, never used as the denominator of a rate.
 */

#ifndef PERFBENCH_MEASURE_HPP
#define PERFBENCH_MEASURE_HPP

#include <cstdint>
#include <vector>

namespace perfbench {

/** Seconds on the monotonic clock (arbitrary epoch). */
double wallNow();

/** User + system CPU seconds consumed by the whole process so far
 *  (all threads). */
double processCpuSeconds();

/** Peak resident set size of the process, in MiB. */
double peakRssMb();

/** Median of @p v; 0 for an empty vector. */
double median(std::vector<double> v);

/** @p count per second of @p seconds; 0 when no time elapsed. */
double perSecond(double count, double seconds);

/** Nanoseconds per operation; 0 when @p ops is 0. */
double nsPerOp(double seconds, uint64_t ops);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HPP
