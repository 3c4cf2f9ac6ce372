/**
 * @file
 * The benchmark's workloads. Each one is a fixed plan (machines x
 * inputs, worker count, sharding) made from the seed argument, plus
 * a runner that sets the inputs up, measures the timed phase for the
 * requested number of seconds, checks every simulated result, and
 * reports end-to-end metrics (and, when traced, per-layer ones).
 *
 *  - paper_sweep:     8 presets x the 7 paper kernels, monolithic,
 *                     one thread; traces generated cold in set-up.
 *  - synthetic_sweep: seeded synthetic traces over a dependence-
 *                     distance x working-set grid, on baseline,
 *                     dep8x8 and clustered2x4, one thread.
 *  - sharded_stream:  the kernels x baseline/dep8x8/clustered2x4 as
 *                     one sharded, sampled core::run on every usable
 *                     CPU, streamed through StatStreamWriter and read
 *                     back with loadStatGroups.
 *
 * Only synthetic_sweep depends on the seed.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "golden.hpp"
#include "spans.hpp"
#include "trace/synthetic.hpp"
#include "uarch/config.hpp"

namespace perfbench {

/** The seed the stored synthetic golden values were made with. */
constexpr uint64_t kDefaultSeed = 1;

/** A named machine: the eight `cesp-sim --sweep` presets. */
struct Preset
{
    const char *name;
    cesp::uarch::SimConfig (*make)();
};
const std::vector<Preset> &presets();

/** What a workload simulates; a pure function of (name, seed, nproc). */
struct Plan
{
    std::string name;
    std::vector<size_t> presets;      //!< indices into presets()
    std::vector<std::string> kernels; //!< paper kernels, or
    std::vector<cesp::trace::SyntheticParams> synthetic; //!< synthetic
    uint64_t synthetic_length = 0;    //!< records per synthetic trace
    unsigned jobs = 1;
    unsigned shards = 1;
    uint64_t warmup = 0;
    uint64_t sample_every = 0;
    /** Golden export under the golden directory; empty = none. */
    std::string golden;
    /** (preset, input) pairs whose streams the traced run replays
     *  into the component classes. */
    std::vector<std::pair<size_t, size_t>> replays;

    size_t inputs() const
    {
        return kernels.empty() ? synthetic.size() : kernels.size();
    }
};

const std::vector<std::string> &workloadNames();

/** False if @p name is not a workload. */
bool planWorkload(const std::string &name, uint64_t seed,
                  unsigned nproc, Plan &out);

struct Options
{
    double seconds = 10.0;
    bool trace = false;
    std::string state_dir;  //!< scratch space (trace caches, streams)
    std::string golden_dir; //!< where Plan::golden files live
    std::string export_path; //!< write the first pass's groups here
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome
{
    Tally tally;
    /** Host times as measured (sim_mips, wall_s, cpu_s) and the
     *  calibration time that scales them into end_to_end. */
    std::vector<Metric> measured;
    std::vector<Metric> end_to_end;
    std::vector<Metric> layers; //!< traced run only
    /** sharded_stream: max |merged - monolithic| / monolithic IPC,
     *  in percent; negative for the other workloads. */
    double shard_ipc_err_pct = -1.0;
};

/** Names and units of every per-layer metric, in report order. */
std::vector<Metric> layerSchema();

/** Run one workload. Throws std::runtime_error when the benchmark
 *  itself cannot run (missing golden file, unwritable state). */
Outcome runWorkload(const Plan &plan, const Options &opt,
                    SpanRecorder &spans);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
