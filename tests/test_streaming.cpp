/**
 * @file
 * Tests of the streaming-observability stack: interval snapshots
 * (Pipeline::run sampling must not perturb the simulation, and the
 * delta series must sum back to the cumulative totals), the
 * JSON-lines stream writer/reader round-trip with its golden record
 * shape, the O(1)-memory callback mode of core::run (stream equals
 * batch for any worker count), the multi-format loadStatGroups
 * loader, and the compareGroups regression gate behind
 * `cesp-sim --compare`.
 *
 * This suite carries the "tsan" ctest label: the streaming callbacks
 * fire concurrently from the sweep pool's worker threads.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "core/presets.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "trace/synthetic.hpp"
#include "uarch/pipeline.hpp"

using namespace cesp;
using core::SweepTask;
using uarch::RunLimits;
using uarch::SimStats;
using uarch::StatSnapshot;

namespace {

trace::TraceBuffer
synthetic(uint64_t seed, uint64_t n)
{
    return trace::generateSynthetic({.seed = seed}, n);
}

/** Private scratch directory, removed when the suite exits. It is
 *  per process: ctest runs each test as its own process, in
 *  parallel, and every process removes its directory on exit. */
std::filesystem::path g_dir;

class ScratchEnv : public ::testing::Environment
{
  public:
    void
    SetUp() override
    {
        g_dir = std::filesystem::temp_directory_path() /
            strprintf("cesp-streaming-test-%d", getpid());
        std::filesystem::create_directories(g_dir);
    }
    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove_all(g_dir, ec);
    }
};

const ::testing::Environment *const g_env =
    ::testing::AddGlobalTestEnvironment(new ScratchEnv);

std::string
scratchFile(const std::string &name)
{
    return (g_dir / name).string();
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** A tiny deterministic group for golden-record tests. */
StatGroup
tinyGroup()
{
    StatGroup g("demo", "cfg-a");
    g.addCounter("ticks", "cycles", "elapsed cycles", 40);
    g.addGauge("clock_mhz", "MHz", "estimated clock", 250.5);
    return g;
}

} // namespace

// ---------------------------------------------------------------------
// Interval sampling inside Pipeline::run

TEST(Sampling, FinalStatsBitIdenticalWithSamplingOnOrOff)
{
    trace::TraceBuffer buf = synthetic(51, 20000);
    for (const uarch::SimConfig &cfg :
         {core::baseline8Way(), core::dependence8x8(),
          core::clusteredDependence2x4()}) {
        SimStats plain = uarch::simulate(cfg, buf);

        size_t snapshots = 0;
        RunLimits lim;
        lim.sample_every = 1000;
        lim.sampler = [&](const StatSnapshot &) { ++snapshots; };
        SimStats sampled = uarch::simulate(cfg, buf, lim);

        EXPECT_EQ(snapshots, 20u) << cfg.name;
        // The acceptance contract: sampling only observes. sameValues
        // spans every counter, gauge, and histogram bucket.
        EXPECT_TRUE(sampled.group().sameValues(plain.group()))
            << cfg.name << ":\n"
            << sampled.group().diff(plain.group());
    }
}

TEST(Sampling, SnapshotSeriesIsConsistent)
{
    trace::TraceBuffer buf = synthetic(52, 10000);
    std::vector<StatSnapshot> snaps;
    RunLimits lim;
    lim.sample_every = 1500;
    lim.sampler = [&](const StatSnapshot &s) { snaps.push_back(s); };
    SimStats final = uarch::simulate(core::baseline8Way(), buf, lim);

    // 10000 commits / 1500 = 6 full intervals; the trailing partial
    // interval emits no snapshot (the end-of-run stats cover it).
    ASSERT_EQ(snaps.size(), 6u);
    uint64_t delta_cycles = 0, delta_committed = 0;
    for (size_t i = 0; i < snaps.size(); ++i) {
        const StatSnapshot &s = snaps[i];
        EXPECT_EQ(s.index, i);
        EXPECT_EQ(s.committed, (i + 1) * 1500);
        EXPECT_EQ(s.cumulative.counter("committed"), s.committed);
        EXPECT_EQ(s.cumulative.counter("cycles"), s.cycles);
        // The delta series telescopes back to the cumulative one.
        delta_cycles += s.delta.counter("cycles");
        delta_committed += s.delta.counter("committed");
        EXPECT_EQ(delta_cycles, s.cumulative.counter("cycles")) << i;
        EXPECT_EQ(delta_committed,
                  s.cumulative.counter("committed")) << i;
    }
    // Cumulative snapshots are monotone prefixes of the final stats.
    EXPECT_LE(snaps.back().cycles, final.cycles());
    EXPECT_LE(snaps.back().cumulative.counter("fetched"),
              final.fetched());
    // The first delta IS the first cumulative.
    EXPECT_TRUE(snaps[0].delta.sameValues(snaps[0].cumulative));

    // Every kind's delta is exact: each cumulative is the previous
    // one merged with its delta, counter by counter and bucket by
    // bucket.
    auto expectExactDeltas = [](const std::vector<StatSnapshot> &series,
                                const char *what) {
        for (size_t i = 1; i < series.size(); ++i) {
            StatGroup rebuilt = series[i - 1].cumulative;
            rebuilt.merge(series[i].delta);
            EXPECT_TRUE(rebuilt.sameValues(series[i].cumulative))
                << what << " snapshot " << i << ":\n"
                << rebuilt.diff(series[i].cumulative);
        }
    };
    expectExactDeltas(snaps, "baseline8Way");

    // A clustered machine past a warmup, whose growable histograms
    // widen between snapshots.
    std::vector<StatSnapshot> clustered;
    lim.warmup = 2000;
    lim.sampler = [&](const StatSnapshot &s) { clustered.push_back(s); };
    uarch::simulate(core::clusteredDependence2x4(), buf, lim);
    ASSERT_EQ(clustered.size(), 5u); // 8000 measured commits / 1500
    expectExactDeltas(clustered, "clusteredDependence2x4");
}

TEST(Sampling, CountsOnlyMeasuredCommitsAfterWarmup)
{
    trace::TraceBuffer buf = synthetic(53, 8000);
    std::vector<StatSnapshot> snaps;
    RunLimits lim;
    lim.warmup = 3000;
    lim.sample_every = 2000;
    lim.sampler = [&](const StatSnapshot &s) { snaps.push_back(s); };
    SimStats s = uarch::simulate(core::baseline8Way(), buf, lim);

    // 5000 measured commits -> snapshots at 2000 and 4000.
    ASSERT_EQ(snaps.size(), 2u);
    EXPECT_EQ(snaps[0].committed, 2000u);
    EXPECT_EQ(snaps[1].committed, 4000u);
    EXPECT_EQ(s.committed(), 5000u);
    // And the warmup contract itself still holds bit-for-bit.
    RunLimits plain_lim;
    plain_lim.warmup = 3000;
    SimStats plain =
        uarch::simulate(core::baseline8Way(), buf, plain_lim);
    EXPECT_TRUE(s.group().sameValues(plain.group()));
}

// ---------------------------------------------------------------------
// JSON-lines writer / reader

TEST(StatStream, GoldenRecordShape)
{
    // The golden stream record: any change to the record layout or
    // key order must be deliberate (bump the schema version when the
    // shape changes).
    std::string path = scratchFile("golden.jsonl");
    {
        StatStreamWriter w(path);
        ASSERT_TRUE(w.ok()) << w.error();
        StatStreamMeta meta;
        meta.kind = "run";
        meta.task = 3;
        EXPECT_TRUE(w.append(meta, tinyGroup()));
    }
    const char *golden =
        "{\"schema\":\"cesp.statgroup.jsonl\",\"schema_version\":1,"
        "\"seq\":0,\"kind\":\"run\",\"task\":3,\"stats\":"
        "{\"schema\":\"cesp.statgroup\",\"schema_version\":1,"
        "\"group\":\"demo\",\"label\":\"cfg-a\",\"metrics\":["
        "{\"name\":\"ticks\",\"kind\":\"counter\",\"unit\":\"cycles\","
        "\"desc\":\"elapsed cycles\",\"value\":40},"
        "{\"name\":\"clock_mhz\",\"kind\":\"gauge\",\"unit\":\"MHz\","
        "\"desc\":\"estimated clock\",\"value\":250.5}]}}\n";
    EXPECT_EQ(readAll(path), golden);
}

TEST(StatStream, RoundTripPreservesMetaAndValues)
{
    std::string path = scratchFile("roundtrip.jsonl");
    StatGroup cumulative = tinyGroup();
    cumulative.label() = "say \"hi\" \\ \r\x01";
    StatGroup delta = tinyGroup();
    delta.counterAt(0) = 7;
    {
        StatStreamWriter w(path);
        ASSERT_TRUE(w.ok()) << w.error();
        StatStreamMeta run;
        run.kind = "run";
        run.task = 1;
        StatStreamMeta shard;
        shard.kind = "shard";
        shard.task = 1;
        shard.shard = 2;
        StatStreamMeta snap;
        snap.kind = "snapshot";
        snap.task = 0;
        snap.shard = 0;
        snap.interval = 4;
        EXPECT_TRUE(w.append(run, tinyGroup()));
        EXPECT_TRUE(w.append(shard, tinyGroup()));
        EXPECT_TRUE(w.append(snap, cumulative, &delta));
    }

    std::vector<StatStreamRecord> recs;
    std::string err;
    ASSERT_TRUE(readStatStream(readAll(path), recs, &err)) << err;
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[0].seq, 0u);
    EXPECT_EQ(recs[0].kind, "run");
    EXPECT_EQ(recs[0].task, 1);
    EXPECT_EQ(recs[0].shard, -1);
    EXPECT_FALSE(recs[0].has_delta);
    EXPECT_TRUE(recs[0].stats.sameValues(tinyGroup()));
    EXPECT_EQ(recs[1].kind, "shard");
    EXPECT_EQ(recs[1].shard, 2);
    EXPECT_EQ(recs[2].kind, "snapshot");
    EXPECT_EQ(recs[2].interval, 4);
    EXPECT_EQ(recs[2].stats.label(), cumulative.label());
    ASSERT_TRUE(recs[2].has_delta);
    EXPECT_TRUE(recs[2].delta.sameValues(delta));
    EXPECT_EQ(recs[2].delta.counter("ticks"), 7u);
}

TEST(StatStream, MalformedLineFailsTheRead)
{
    std::vector<StatStreamRecord> recs;
    std::string err;
    EXPECT_FALSE(readStatStream("{\"schema\":\"wrong\"}\n", recs,
                                &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(readStatStream("not json\n", recs, &err));

    // A stamp must be an unsigned integer, and a delta a group.
    const std::string path = scratchFile("malformed.jsonl");
    {
        StatStreamWriter w(path);
        StatStreamMeta meta;
        meta.kind = "snapshot";
        meta.task = 3;
        StatGroup delta = tinyGroup();
        w.append(meta, tinyGroup(), &delta);
    }
    const std::string line = readAll(path);
    ASSERT_TRUE(readStatStream(line, recs, &err)) << err;
    auto broken = [&](const std::string &from, const std::string &to) {
        std::string s = line;
        const size_t at = s.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return s.replace(at, from.size(), to);
    };
    EXPECT_FALSE(
        readStatStream(broken("\"task\":3", "\"task\":-1"), recs, &err));
    EXPECT_EQ(err, "line 1: \"task\" is not an unsigned 64-bit integer");
    EXPECT_FALSE(readStatStream(
        broken("\"delta\":{\"schema\":\"cesp.statgroup\"",
               "\"delta\":{\"schema\":\"other\""),
        recs, &err));
    EXPECT_EQ(err.rfind("line 1: delta: ", 0), 0u) << err;
}

TEST(StatStream, UnwritablePathReportsError)
{
    StatStreamWriter w("/nonexistent-dir/out.jsonl");
    EXPECT_FALSE(w.ok());
    EXPECT_FALSE(w.error().empty());
    std::string err;
    EXPECT_FALSE(writeTextOutput("/nonexistent-dir/out.json", "{}", &err));
    EXPECT_EQ(err, "cannot open '/nonexistent-dir/out.json' for writing");
}

// ---------------------------------------------------------------------
// loadStatGroups: one loader for every export format

TEST(LoadStatGroups, ReadsSingleListAndStreamDocuments)
{
    StatGroup g = tinyGroup();
    std::string single = scratchFile("single.json");
    std::string list = scratchFile("list.json");
    std::string stream = scratchFile("stream.jsonl");
    std::string err;
    ASSERT_TRUE(writeTextOutput(single, g.toJson(), &err));
    ASSERT_TRUE(
        writeTextOutput(list, statGroupListJson({g, g}, {}), &err));
    {
        StatStreamWriter w(stream);
        // Arrival order scrambled: task 1 finishes before task 0, and
        // shard/snapshot records ride along. The loader must keep only
        // the "run" records and order them by task index.
        StatStreamMeta m;
        m.kind = "snapshot";
        m.task = 0;
        m.interval = 0;
        w.append(m, g);
        m = {};
        m.kind = "run";
        m.task = 1;
        w.append(m, g);
        m = {};
        m.kind = "shard";
        m.task = 0;
        m.shard = 1;
        w.append(m, g);
        StatGroup second = tinyGroup();
        second.counterAt(0) = 99;
        m = {};
        m.kind = "run";
        m.task = 0;
        w.append(m, second);
    }

    std::vector<StatGroup> out;
    ASSERT_TRUE(loadStatGroups(single, out, &err)) << err;
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].sameValues(g));

    out.clear();
    ASSERT_TRUE(loadStatGroups(list, out, &err)) << err;
    EXPECT_EQ(out.size(), 2u);

    out.clear();
    ASSERT_TRUE(loadStatGroups(stream, out, &err)) << err;
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].counter("ticks"), 99u); // task 0, despite arrival
    EXPECT_EQ(out[1].counter("ticks"), 40u); // task 1

    // Snapshots alone, all of task 0: ordered by shard, then interval.
    std::string snapshots = scratchFile("snapshots.jsonl");
    {
        StatStreamWriter w(snapshots);
        const int64_t arrival[][2] = {{1, 0}, {0, 1}, {0, 0}};
        for (uint64_t i = 0; i < 3; ++i) {
            StatStreamMeta m;
            m.kind = "snapshot";
            m.task = 0;
            m.shard = arrival[i][0];
            m.interval = arrival[i][1];
            StatGroup s = tinyGroup();
            s.counterAt(0) = 3 - i;
            w.append(m, s);
        }
    }
    out.clear();
    ASSERT_TRUE(loadStatGroups(snapshots, out, &err)) << err;
    ASSERT_EQ(out.size(), 3u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i].counter("ticks"), i + 1);
}

TEST(LoadStatGroups, MissingFileAndGarbageFail)
{
    std::vector<StatGroup> out;
    std::string err;
    EXPECT_FALSE(
        loadStatGroups(scratchFile("nope.json"), out, &err));
    EXPECT_FALSE(err.empty());
    std::string garbage = scratchFile("garbage.json");
    ASSERT_TRUE(writeTextOutput(garbage, "not json at all", &err));
    EXPECT_FALSE(loadStatGroups(garbage, out, &err));
    // A directory opens but cannot be read.
    EXPECT_FALSE(loadStatGroups(g_dir.string(), out, &err));
    EXPECT_EQ(err, "read error on '" + g_dir.string() + "'");
    std::string empty_list = scratchFile("empty_list.json");
    ASSERT_TRUE(writeTextOutput(
        empty_list,
        "{\"schema\": \"cesp.statgroup.list\", \"schema_version\": 1}",
        &err));
    EXPECT_FALSE(loadStatGroups(empty_list, out, &err));
    EXPECT_NE(err.find("list document has no groups"), std::string::npos)
        << err;
}

// ---------------------------------------------------------------------
// core::run streaming callbacks

TEST(RunStreaming, CallbacksMatchCollectedResultsForAnyJobs)
{
    trace::TraceBuffer a = synthetic(61, 6000);
    trace::TraceBuffer b = synthetic(62, 6000);
    std::vector<SweepTask> tasks;
    for (int i = 0; i < 6; ++i)
        tasks.push_back({i % 2 ? core::dependence8x8()
                               : core::baseline8Way(),
                         i % 2 ? b : a});

    core::RunOptions ref_opt;
    ref_opt.jobs = 1;
    core::RunResult reference = core::run(tasks, ref_opt);

    for (unsigned jobs : {1u, 4u}) {
        std::vector<StatGroup> streamed(tasks.size());
        std::vector<int> seen(tasks.size(), 0);
        std::mutex mu;
        core::RunOptions opt;
        opt.jobs = jobs;
        opt.on_result = [&](size_t task, const StatGroup &g) {
            std::lock_guard<std::mutex> lock(mu);
            streamed[task] = g;
            ++seen[task];
        };
        core::RunResult r = core::run(tasks, opt);
        for (size_t i = 0; i < tasks.size(); ++i) {
            EXPECT_EQ(seen[i], 1) << "task " << i;
            // The callback's group is the collected group is the
            // serial reference, for any worker count.
            EXPECT_TRUE(streamed[i].sameValues(r.groups[i])) << i;
            EXPECT_TRUE(
                streamed[i].sameValues(reference.groups[i])) << i;
            EXPECT_EQ(streamed[i].label(), tasks[i].cfg.name);
        }
    }
}

TEST(RunStreaming, ShardAndSnapshotCallbacksCoverThePlan)
{
    trace::TraceBuffer buf = synthetic(63, 9000);
    std::vector<SweepTask> tasks = {{core::baseline8Way(), buf},
                                    {core::dependence8x8(), buf}};
    core::RunOptions opt;
    opt.jobs = 2;
    opt.shards = 3;
    opt.warmup = 500;
    opt.sample_every = 1000;
    std::mutex mu;
    std::vector<std::vector<int>> shard_seen(
        tasks.size(), std::vector<int>(3, 0));
    size_t snapshots = 0;
    opt.on_shard = [&](size_t task, size_t shard, const SimStats &) {
        std::lock_guard<std::mutex> lock(mu);
        ++shard_seen[task][shard];
    };
    opt.on_snapshot = [&](size_t task, size_t shard,
                          const StatSnapshot &s) {
        std::lock_guard<std::mutex> lock(mu);
        ASSERT_LT(task, tasks.size());
        ASSERT_LT(shard, 3u);
        EXPECT_EQ(s.cumulative.counter("committed"), s.committed);
        ++snapshots;
    };
    core::RunResult r = core::run(tasks, opt);
    ASSERT_EQ(r.stats.size(), 6u);
    for (const auto &per_task : shard_seen)
        for (int n : per_task)
            EXPECT_EQ(n, 1);
    // 3000-commit measured windows, sampled every 1000: 3 snapshots
    // per shard, 3 shards per task, 2 tasks.
    EXPECT_EQ(snapshots, 18u);
}

TEST(RunStreaming, ThousandRunStreamingModeIsExactWithoutBuffering)
{
    // The O(1)-memory acceptance test: stream >1000 tiny runs with
    // collect_results off, unsharded and in two shards; every task
    // index arrives exactly once and carries exactly the stats the
    // buffered mode would have returned.
    trace::TraceBuffer buf = synthetic(64, 300);
    uarch::SimConfig cfg = core::baseline8Way();
    std::vector<SweepTask> tasks(1200, SweepTask{cfg, buf});

    for (unsigned shards : {1u, 2u}) {
        SCOPED_TRACE(shards);
        core::RunOptions batch_opt;
        batch_opt.jobs = 4;
        batch_opt.shards = shards;
        core::RunResult batch = core::run(tasks, batch_opt);
        ASSERT_EQ(batch.groups.size(), tasks.size());

        std::vector<int> seen(tasks.size(), 0);
        size_t mismatches = 0;
        std::mutex mu;
        core::RunOptions opt = batch_opt;
        opt.collect_results = false;
        opt.on_result = [&](size_t task, const StatGroup &g) {
            std::lock_guard<std::mutex> lock(mu);
            ++seen[task];
            if (!g.sameValues(batch.groups[task]))
                ++mismatches;
        };
        core::RunResult r = core::run(tasks, opt);
        EXPECT_TRUE(r.stats.empty());
        EXPECT_TRUE(r.groups.empty());
        EXPECT_EQ(mismatches, 0u);
        for (size_t i = 0; i < seen.size(); ++i)
            EXPECT_EQ(seen[i], 1) << "task " << i;
    }
}

namespace {

/** Peak resident set of this process so far, in MB. */
double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KB on Linux
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
constexpr bool kSanitized = __has_feature(address_sanitizer) ||
    __has_feature(thread_sanitizer);
#else
constexpr bool kSanitized = false;
#endif

} // namespace

TEST(RunStreaming, ShardedStreamingHoldsOnlyInFlightShards)
{
    // A streamed sharded task buffers its shard stats (about 9 KB
    // each) only while it is in flight. Sized up front for every
    // task, 10,000 two-shard tasks would grow the peak RSS by about
    // 180 MB.
    trace::TraceBuffer buf = synthetic(67, 200);
    std::vector<SweepTask> tasks(10000,
                                 SweepTask{core::baseline8Way(), buf});
    core::RunOptions opt;
    opt.jobs = 1;
    opt.shards = 2;
    opt.collect_results = false;
    size_t merged = 0;
    opt.on_result = [&](size_t, const StatGroup &) { ++merged; };

    const double before = peakRssMb();
    core::run(tasks, opt);
    const double grown = peakRssMb() - before;
    EXPECT_EQ(merged, tasks.size());
    // Sanitizer shadow memory and quarantine swamp the measurement.
    if (!kSanitized) {
        EXPECT_LT(grown, 48.0) << "peak RSS grew " << grown << " MB";
    }
}

TEST(RunStreaming, ThrowingCallbackAbortsLikeAFailingTask)
{
    trace::TraceBuffer buf = synthetic(65, 1000);
    std::vector<SweepTask> tasks(8, SweepTask{core::baseline8Way(),
                                              buf});
    core::RunOptions opt;
    opt.jobs = 4;
    opt.on_result = [&](size_t task, const StatGroup &) {
        if (task == 5)
            throw std::runtime_error("sink exploded");
    };
    try {
        core::run(tasks, opt);
        FAIL() << "expected the callback exception to propagate";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "sink exploded");
    }
}

// ---------------------------------------------------------------------
// compareGroups: the regression gate

TEST(CompareGroups, FlagsOnlyRegressionsBeyondThreshold)
{
    StatGroup before("run", "a");
    before.addCounter("committed", "instructions", "commits", 1000);
    before.addCounter("cycles", "cycles", "cycles", 500);
    before.addDerived("ipc", "inst/cycle", "ipc", "committed",
                      "cycles");

    auto withCycles = [&](uint64_t cycles) {
        StatGroup g("run", "b");
        g.addCounter("committed", "instructions", "commits", 1000);
        g.addCounter("cycles", "cycles", "cycles", cycles);
        g.addDerived("ipc", "inst/cycle", "ipc", "committed",
                     "cycles");
        return g;
    };

    core::CompareOptions opt;
    opt.threshold = 0.02;

    // Improvement: never a regression.
    core::CompareResult up =
        core::compareGroups({before}, {withCycles(450)}, opt);
    ASSERT_EQ(up.entries.size(), 1u);
    EXPECT_TRUE(up.schema_ok);
    EXPECT_FALSE(up.regressed);
    EXPECT_GT(up.entries[0].delta, 0.0);

    // A 1% dip stays inside the 2% tolerance...
    EXPECT_FALSE(core::compareGroups({before}, {withCycles(505)}, opt)
                     .regressed);
    // ...a 9% dip does not.
    core::CompareResult down =
        core::compareGroups({before}, {withCycles(550)}, opt);
    EXPECT_TRUE(down.regressed);
    EXPECT_TRUE(down.entries[0].regressed);
    EXPECT_LT(down.entries[0].rel, -0.02);

    // lower_is_better flips the direction: fewer cycles regressing.
    core::CompareOptions cyc;
    cyc.metric = "cycles";
    cyc.threshold = 0.02;
    cyc.lower_is_better = true;
    EXPECT_TRUE(core::compareGroups({before}, {withCycles(550)}, cyc)
                    .regressed);
    EXPECT_FALSE(core::compareGroups({before}, {withCycles(450)}, cyc)
                     .regressed);
}

TEST(CompareGroups, SchemaAndPairingMismatchesClearSchemaOk)
{
    StatGroup a = tinyGroup();
    StatGroup other("demo", "cfg-b");
    other.addCounter("different", "cycles", "not the same schema", 1);

    core::CompareResult mismatch =
        core::compareGroups({a}, {other}, {});
    EXPECT_FALSE(mismatch.schema_ok);
    ASSERT_EQ(mismatch.entries.size(), 1u);
    EXPECT_FALSE(mismatch.entries[0].schema_note.empty());

    core::CompareResult counts = core::compareGroups({a, a}, {a}, {});
    EXPECT_FALSE(counts.schema_ok);
    EXPECT_FALSE(counts.error.empty());

    // A metric absent from the schema is a schema failure, not a
    // silent pass.
    core::CompareOptions opt;
    opt.metric = "ipc";
    core::CompareResult missing = core::compareGroups({a}, {a}, opt);
    EXPECT_FALSE(missing.schema_ok);
}
