/**
 * @file
 * golden_sweep: every statistic of the preset sweep (eight presets x
 * seven kernels, as `cesp-sim --sweep` runs it) equals the stored
 * exports perfbench gates on, perfbench/golden/paper_sweep.json for
 * the monolithic runs and sharded_stream.json for `--shards 8
 * --warmup 50000`. A change that moves any counter, histogram bucket
 * or out-of-range count fails here and prints StatGroup::diff.
 *
 * The goldens are read in place. A change that alters a statistic on
 * purpose regenerates them (`cesp-sim --sweep --jobs 1 --json FILE`,
 * and the same with `--shards 8 --warmup 50000`) and names the
 * changed statistics.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "core/machine.hpp"
#include "core/presets.hpp"
#include "core/sweep.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;

namespace {

/** The sweep's machines, in `cesp-sim --sweep` order. */
const struct
{
    const char *name;
    uarch::SimConfig (*make)();
} kPresets[] = {
    {"baseline", core::baseline8Way},
    {"dep8x8", core::dependence8x8},
    {"clustered2x4", core::clusteredDependence2x4},
    {"windows2x4", core::clusteredWindows2x4},
    {"execsteer", core::clusteredExecDriven2x4},
    {"random2x4", core::clusteredRandom2x4},
    {"baseline16", core::baseline16Way},
    {"dep4x4", core::clusteredDependence4x4},
};

void
expectGolden(const std::string &file, const core::RunOptions &options)
{
    std::vector<StatGroup> golden;
    std::string error;
    ASSERT_TRUE(loadStatGroups(std::string(CESP_GOLDEN_DIR) + "/" + file,
                               golden, &error))
        << error;

    std::vector<core::SweepTask> tasks;
    std::vector<std::string> labels;
    for (const auto &p : kPresets)
        for (const auto &w : workloads::allWorkloads()) {
            tasks.push_back(
                {p.make(), core::cachedWorkloadTraceView(w.name)});
            labels.push_back(std::string(p.name) + " / " + w.name);
        }
    ASSERT_EQ(golden.size(), tasks.size()) << file;

    std::vector<StatGroup> groups = core::run(tasks, options).groups;
    ASSERT_EQ(groups.size(), tasks.size());
    for (size_t t = 0; t < tasks.size(); ++t) {
        ASSERT_EQ(golden[t].label(), labels[t]) << file;
        EXPECT_TRUE(groups[t].sameValues(golden[t]))
            << labels[t] << " differs from " << file << " (run vs "
            << "golden):\n"
            << (groups[t].sameSchema(golden[t])
                    ? groups[t].diff(golden[t])
                    : groups[t].schemaDiff(golden[t]));
    }
}

} // namespace

TEST(GoldenSweep, MonolithicMatchesPaperSweep)
{
    core::RunOptions options;
    options.jobs = 1;
    expectGolden("paper_sweep.json", options);
}

TEST(GoldenSweep, ShardedMatchesShardedStream)
{
    core::RunOptions options;
    options.shards = 8;
    options.warmup = 50'000;
    expectGolden("sharded_stream.json", options);
}
