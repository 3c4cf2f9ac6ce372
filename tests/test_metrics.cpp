/**
 * @file
 * Tests of the self-describing metrics registry: registration and
 * export ordering, the golden JSON schema, lossless round-trips,
 * the merge algebra (including the sweep-level property that merging
 * per-worker groups equals single-threaded accumulation), and the
 * per-cluster bounding of the simulator's registry.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "core/presets.hpp"
#include "core/sweep.hpp"
#include "trace/synthetic.hpp"
#include "uarch/pipeline.hpp"

using namespace cesp;
using uarch::SimStats;

namespace {

/** A small group exercising every StatKind. */
StatGroup
demoGroup()
{
    StatGroup g("demo", "cfg-a");
    g.addCounter("ticks", "cycles", "elapsed cycles", 40);
    g.addCounter("work", "ops", "operations completed", 10);
    g.addGauge("clock_mhz", "MHz", "estimated clock", 250.5);
    g.addDerived("rate", "ops/cycle", "work per cycle", "work",
                 "ticks");
    size_t h = g.addHistogram("occupancy", "entries",
                              "buffer occupancy", 3, 1.0);
    g.histogramAt(h).add(0.5);
    g.histogramAt(h).add(1.5);
    g.histogramAt(h).add(5.0);  // overflow
    g.histogramAt(h).add(-1.0); // underflow
    return g;
}

SimStats
simulatePreset(const uarch::SimConfig &cfg, uint64_t seed,
               uint64_t instructions = 5000)
{
    trace::TraceBuffer buf =
        trace::generateSynthetic({.seed = seed}, instructions);
    return uarch::simulate(cfg, buf);
}

} // namespace

TEST(StatGroup, RegistrationOrderIsExportOrder)
{
    StatGroup g = demoGroup();
    std::vector<std::string> names;
    for (const StatEntry &e : g.entries())
        names.push_back(e.name);
    std::vector<std::string> expect = {"ticks", "work", "clock_mhz",
                                       "rate", "occupancy"};
    EXPECT_EQ(names, expect);
    // Export is deterministic: two renderings are byte-identical.
    EXPECT_EQ(g.toJson(), g.toJson());
    EXPECT_EQ(g.toCsv(), g.toCsv());
}

TEST(StatGroup, NamedAccess)
{
    StatGroup g = demoGroup();
    EXPECT_EQ(g.counter("ticks"), 40u);
    EXPECT_DOUBLE_EQ(g.value("clock_mhz"), 250.5);
    EXPECT_DOUBLE_EQ(g.value("rate"), 0.25); // 10 / 40
    EXPECT_EQ(g.find("nope"), nullptr);
    ASSERT_NE(g.find("occupancy"), nullptr);
    EXPECT_EQ(g.find("occupancy")->kind, StatKind::Histogram);
}

/**
 * The golden export: any change to the document layout, key order,
 * or value formatting must be deliberate (bump kStatsSchemaVersion
 * when the schema changes shape).
 */
TEST(StatGroup, GoldenJson)
{
    const char *golden = R"({
  "schema": "cesp.statgroup",
  "schema_version": 1,
  "group": "demo",
  "label": "cfg-a",
  "metrics": [
    {
      "name": "ticks",
      "kind": "counter",
      "unit": "cycles",
      "desc": "elapsed cycles",
      "value": 40
    },
    {
      "name": "work",
      "kind": "counter",
      "unit": "ops",
      "desc": "operations completed",
      "value": 10
    },
    {
      "name": "clock_mhz",
      "kind": "gauge",
      "unit": "MHz",
      "desc": "estimated clock",
      "value": 250.5
    },
    {
      "name": "rate",
      "kind": "derived",
      "unit": "ops/cycle",
      "desc": "work per cycle",
      "num": "work",
      "den": "ticks",
      "scale": 1,
      "value": 0.25
    },
    {
      "name": "occupancy",
      "kind": "histogram",
      "unit": "entries",
      "desc": "buffer occupancy",
      "width": 1,
      "total": 4,
      "underflow": 1,
      "overflow": 1,
      "counts": [
        1,
        1,
        0
      ]
    }
  ]
})";
    EXPECT_EQ(demoGroup().toJson(), std::string(golden) + "\n");
}

TEST(StatGroup, JsonRoundTripSmallGroup)
{
    StatGroup g = demoGroup();
    // A label holding every byte class the writer escapes, and a gauge
    // that needs all 17 significant digits, come back exactly.
    g.label() = "say \"hi\" \\ \r\n\t\x01 end";
    g.gaugeAt(0) = 0.1 + 0.2;
    const std::string doc = g.toJson();
    EXPECT_NE(doc.find("\\u0001"), std::string::npos);
    EXPECT_NE(doc.find("0.30000000000000004"), std::string::npos);
    StatGroup back;
    std::string err;
    ASSERT_TRUE(StatGroup::fromJson(doc, back, &err)) << err;
    EXPECT_TRUE(g.sameSchema(back));
    EXPECT_TRUE(g.sameValues(back)) << g.diff(back);
    EXPECT_EQ(back.label(), g.label());
    EXPECT_EQ(back.gaugeAt(0), 0.1 + 0.2);
    EXPECT_EQ(doc, back.toJson());
}

TEST(StatGroup, FromJsonReadsEveryEscape)
{
    const std::string doc = demoGroup().toJson();
    const std::string label = "\"label\": \"cfg-a\"";
    const size_t at = doc.find(label);
    ASSERT_NE(at, std::string::npos);
    auto withLabel = [&](const std::string &text) {
        return std::string(doc).replace(at, label.size(),
                                        "\"label\": \"" + text + "\"");
    };
    StatGroup back;
    std::string err;
    ASSERT_TRUE(StatGroup::fromJson(
        withLabel("\\/\\b\\f\\t\\u0041\\u004a\\u004A"), back, &err))
        << err;
    EXPECT_EQ(back.label(), "/\b\f\tAJJ");
    for (const char *bad : {"\\q", "\\u12G4"}) {
        EXPECT_FALSE(StatGroup::fromJson(withLabel(bad), back, &err))
            << bad;
        EXPECT_NE(err.find("escape"), std::string::npos) << err;
    }
    // A document that ends inside an escape.
    for (const char *cut : {"{\"schema\": \"a\\", "{\"schema\": \"\\u12"}) {
        EXPECT_FALSE(StatGroup::fromJson(cut, back, &err)) << cut;
        EXPECT_NE(err.find("escape"), std::string::npos) << err;
    }
}

TEST(StatGroup, JsonRoundTripSimulatorGroup)
{
    // The full simulator registry: 20+ counters, derived ratios with
    // irrational values, two histograms, per-cluster counters.
    SimStats s = simulatePreset(core::clusteredDependence2x4(), 7);
    const StatGroup &g = s.group();
    StatGroup back;
    std::string err;
    ASSERT_TRUE(StatGroup::fromJson(g.toJson(), back, &err)) << err;
    EXPECT_TRUE(g.sameValues(back)) << g.diff(back);
    EXPECT_EQ(g.toJson(), back.toJson());
}

TEST(StatGroup, FromJsonRejectsGarbage)
{
    StatGroup back;
    std::string err;
    EXPECT_FALSE(StatGroup::fromJson("{", back, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(StatGroup::fromJson("[1,2,3]", back, &err));
    // Wrong schema version must be refused, not misparsed.
    std::string doc = demoGroup().toJson();
    size_t at = doc.find("\"schema_version\": 1");
    ASSERT_NE(at, std::string::npos);
    doc.replace(at, 19, "\"schema_version\": 99");
    EXPECT_FALSE(StatGroup::fromJson(doc, back, &err));
    // Two metrics of one name.
    std::string dup = demoGroup().toJson();
    dup.replace(dup.find("\"work\""), 6, "\"ticks\"");
    EXPECT_FALSE(StatGroup::fromJson(dup, back, &err));
    EXPECT_NE(err.find("duplicate metric 'ticks'"), std::string::npos)
        << err;
}

TEST(StatGroup, DeepNestingIsAParseErrorNotACrash)
{
    // Nesting is capped: input deeper than kJsonMaxDepth fails with a
    // typed error rather than recursing once per bracket.
    auto nested = [](int depth) {
        return std::string(static_cast<size_t>(depth), '[') +
            std::string(static_cast<size_t>(depth), ']');
    };
    StatGroup back;
    std::string err;
    EXPECT_FALSE(StatGroup::fromJson(nested(kJsonMaxDepth), back, &err));
    EXPECT_EQ(err.find("nesting too deep"), std::string::npos) << err;
    err.clear();
    EXPECT_FALSE(
        StatGroup::fromJson(nested(kJsonMaxDepth + 1), back, &err));
    EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;

    // What `cesp-sim --compare` reads: a file of two million '['.
    const std::string deep(2000000, '[');
    err.clear();
    EXPECT_FALSE(StatGroup::fromJson(deep, back, &err));
    EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;

    std::filesystem::path file =
        std::filesystem::temp_directory_path() /
        ("cesp-deep-" + std::to_string(getpid()) + ".json");
    {
        std::ofstream out(file, std::ios::binary);
        out << deep;
    }
    std::vector<StatGroup> groups;
    err.clear();
    EXPECT_FALSE(loadStatGroups(file.string(), groups, &err));
    EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
    std::filesystem::remove(file);
}

/**
 * Numbers are lexed by the RFC 8259 grammar, and a counter must be an
 * unsigned integer that fits in uint64_t: a malformed token or a
 * value a counter cannot hold is a typed load error through both the
 * single-document and the any-format reader, never a wrapped or
 * truncated count.
 */
TEST(StatGroup, CounterValueMustBeAnUnsignedInteger)
{
    const std::string doc = demoGroup().toJson();
    const std::string value = "\"value\": 40";
    const size_t at = doc.find(value);
    ASSERT_NE(at, std::string::npos);
    auto withTicks = [&](const std::string &token) {
        return std::string(doc).replace(at, value.size(),
                                        "\"value\": " + token);
    };
    std::filesystem::path file =
        std::filesystem::temp_directory_path() /
        ("cesp-counter-" + std::to_string(getpid()) + ".json");

    for (const char *token : {"-1", "1-2", "--", "+5", "1e", "01", "1.5",
                              "1e3", "18446744073709551616"}) {
        StatGroup back;
        std::string err;
        EXPECT_FALSE(StatGroup::fromJson(withTicks(token), back, &err))
            << token;
        EXPECT_FALSE(err.empty()) << token;
        // Loaded from a file, as one group or inside a list, the
        // error names the file.
        for (const std::string &text :
             {withTicks(token),
              "{\"schema\": \"cesp.statgroup.list\", \"groups\": [" +
                  withTicks(token) + "]}"}) {
            {
                std::ofstream out(file, std::ios::binary);
                out << text;
            }
            std::vector<StatGroup> groups;
            err.clear();
            EXPECT_FALSE(loadStatGroups(file.string(), groups, &err))
                << token;
            EXPECT_EQ(err.rfind("'" + file.string() + "': ", 0), 0u)
                << token << ": " << err;
        }
    }
    std::filesystem::remove(file);

    StatGroup max;
    std::string err;
    ASSERT_TRUE(StatGroup::fromJson(withTicks("18446744073709551615"),
                                    max, &err))
        << err;
    EXPECT_EQ(max.counter("ticks"), UINT64_MAX);
    EXPECT_NE(max.toJson().find("\"value\": 18446744073709551615"),
              std::string::npos);
}

TEST(StatGroup, GaugeAcceptsAnyNumberOrNull)
{
    const std::string doc = demoGroup().toJson();
    const std::string value = "\"value\": 250.5";
    const size_t at = doc.find(value);
    ASSERT_NE(at, std::string::npos);
    auto withClock = [&](const std::string &token) {
        return std::string(doc).replace(at, value.size(),
                                        "\"value\": " + token);
    };
    const std::pair<const char *, double> ok[] = {
        {"-1", -1.0}, {"1e3", 1000.0}, {"-0.5E-1", -0.05}, {"null", 0.0}};
    for (const auto &[token, expect] : ok) {
        StatGroup back;
        std::string err;
        ASSERT_TRUE(StatGroup::fromJson(withClock(token), back, &err))
            << token << ": " << err;
        EXPECT_DOUBLE_EQ(back.value("clock_mhz"), expect) << token;
    }
    for (const char *token : {"1-2", "+5", ".5", "1.", "\"5\""}) {
        StatGroup back;
        std::string err;
        EXPECT_FALSE(StatGroup::fromJson(withClock(token), back, &err))
            << token;
    }
    // The writer's side of null: a non-finite gauge.
    StatGroup inf = demoGroup();
    inf.gaugeAt(0) = HUGE_VAL;
    EXPECT_EQ(inf.toJson(), withClock("null"));
}

/**
 * The registry has four kinds. An export that still carries the
 * retired "sample" kind (cesp-trace's dependence_distance before it
 * became a counter and three gauges) is a typed load error, through
 * both the single-document and the any-format reader.
 */
TEST(StatGroup, SampleKindIsAnUnknownKind)
{
    const std::string doc = R"({
  "schema": "cesp.statgroup",
  "schema_version": 1,
  "group": "trace_analysis",
  "label": "go",
  "metrics": [
    {
      "name": "dependence_distance",
      "kind": "sample",
      "unit": "instructions",
      "desc": "Distance from each source operand to its producer",
      "count": 2,
      "sum": 8,
      "min": 2,
      "max": 6
    }
  ]
}
)";
    StatGroup back;
    std::string err;
    EXPECT_FALSE(StatGroup::fromJson(doc, back, &err));
    EXPECT_NE(err.find("unknown metric kind 'sample'"),
              std::string::npos) << err;

    std::filesystem::path file =
        std::filesystem::temp_directory_path() /
        ("cesp-sample-kind-" + std::to_string(getpid()) + ".json");
    {
        std::ofstream out(file, std::ios::binary);
        out << doc;
    }
    std::vector<StatGroup> groups;
    err.clear();
    EXPECT_FALSE(loadStatGroups(file.string(), groups, &err));
    EXPECT_NE(err.find("unknown metric kind 'sample'"),
              std::string::npos) << err;
    std::filesystem::remove(file);
}

TEST(StatGroup, ResetZeroesValuesKeepsSchema)
{
    StatGroup g = demoGroup();
    StatGroup zero = demoGroup();
    zero.reset();
    EXPECT_TRUE(g.sameSchema(zero));
    EXPECT_FALSE(g.sameValues(zero));
    EXPECT_EQ(zero.counter("ticks"), 0u);
    EXPECT_DOUBLE_EQ(zero.value("clock_mhz"), 0.0);
    ASSERT_NE(zero.find("occupancy"), nullptr);
    EXPECT_EQ(
        zero.histogramAt(zero.find("occupancy")->store).total(), 0u);
}

TEST(StatGroup, MergeAddsEveryKind)
{
    StatGroup a = demoGroup();
    a.merge(demoGroup());
    EXPECT_EQ(a.counter("ticks"), 80u);
    EXPECT_DOUBLE_EQ(a.value("clock_mhz"), 501.0);
    EXPECT_DOUBLE_EQ(a.value("rate"), 0.25); // recomputed, not added
    const StatEntry *h = a.find("occupancy");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(a.histogramAt(h->store).total(), 8u);
    EXPECT_EQ(a.histogramAt(h->store).underflow(), 2u);
    EXPECT_EQ(a.histogramAt(h->store).overflow(), 2u);
    // deltaSince undoes the merge, kind by kind.
    EXPECT_TRUE(a.deltaSince(demoGroup()).sameValues(demoGroup()));
}

TEST(StatGroup, DiffNamesTheDifferingEntry)
{
    StatGroup a = demoGroup();
    StatGroup b = demoGroup();
    b.counterAt(0) += 5; // ticks
    std::string d = a.diff(b);
    EXPECT_NE(d.find("ticks"), std::string::npos);
    EXPECT_EQ(d.find("work"), std::string::npos);
}

TEST(StatGroup, DiffNamesADifferingGauge)
{
    StatGroup a = demoGroup();
    StatGroup b = demoGroup();
    b.gaugeAt(0) = 300.25; // clock_mhz
    EXPECT_EQ(a.diff(b), "clock_mhz: 250.5 vs 300.25\n");
}

TEST(StatGroup, DiffListsDifferingHistogramBuckets)
{
    StatGroup a = demoGroup();
    StatGroup b = demoGroup();
    size_t h = a.find("occupancy")->store;
    b.histogramAt(h).add(1.25);
    EXPECT_EQ(a.diff(b), "occupancy: histogram differs: [1]=1/2\n");

    // Out-of-range counts differ with every bucket equal.
    StatGroup c = demoGroup();
    c.histogramAt(h).add(-2.0);
    c.histogramAt(h).add(9.0);
    EXPECT_EQ(a.diff(c), "occupancy: histogram differs: under/over="
                         "1,1 vs 2,2\n");
}

TEST(StatGroup, DiffComparesGrownHistogramsBucketByBucket)
{
    auto grown = [](double top) {
        StatGroup g("demo", "cfg-a");
        size_t h = g.addHistogram("occupancy", "entries",
                                  "buffer occupancy", 2, 1.0, true);
        g.histogramAt(h).add(0.0);
        g.histogramAt(h).add(top);
        return g;
    };
    // Buckets one side never grew to count as zero.
    EXPECT_EQ(grown(1.0).diff(grown(6.0)),
              "occupancy: histogram differs: [1]=1/0 [6]=0/1\n");
}

TEST(StatGroup, DiffSkipsDerivedAndReportsSchemaMismatch)
{
    StatGroup a = demoGroup();
    StatGroup b = demoGroup();
    b.counterAt(1) += 10; // work, the numerator of rate
    EXPECT_EQ(a.diff(b), "work: 10 vs 20\n");
    EXPECT_EQ(a.diff(a), "");

    StatGroup extra = demoGroup();
    extra.addCounter("stalls", "cycles", "pipeline stalls");
    EXPECT_EQ(a.diff(extra), "schema mismatch");
}

TEST(StatGroup, SchemaDiffNamesTheFirstDifferingEntry)
{
    StatGroup a = demoGroup();
    EXPECT_EQ(a.schemaDiff(demoGroup()), "");

    // Extra entry: the counts differ.
    StatGroup extra = demoGroup();
    extra.addCounter("stalls", "cycles", "pipeline stalls");
    EXPECT_NE(a.schemaDiff(extra).find("entry count"),
              std::string::npos);

    // Same shape, different name at one position.
    StatGroup renamed("demo", "cfg-a");
    renamed.addCounter("ticks", "cycles", "elapsed cycles");
    renamed.addCounter("effort", "ops", "operations completed");
    StatGroup two("demo", "cfg-a");
    two.addCounter("ticks", "cycles", "elapsed cycles");
    two.addCounter("work", "ops", "operations completed");
    std::string d = two.schemaDiff(renamed);
    EXPECT_NE(d.find("entry 1"), std::string::npos);
    EXPECT_NE(d.find("work"), std::string::npos);
    EXPECT_NE(d.find("effort"), std::string::npos);

    // Same names, different histogram shape.
    StatGroup h1("demo");
    h1.addHistogram("occ", "entries", "occupancy", 4, 1.0);
    StatGroup h2("demo");
    h2.addHistogram("occ", "entries", "occupancy", 8, 1.0);
    std::string hd = h1.schemaDiff(h2);
    EXPECT_NE(hd.find("occ"), std::string::npos);
    EXPECT_NE(hd.find("histogram shape"), std::string::npos);

    // Same name, different kind.
    StatGroup counter("demo");
    counter.addCounter("x", "ops", "a count");
    StatGroup gauge("demo");
    gauge.addGauge("x", "ops", "a count");
    EXPECT_EQ(counter.schemaDiff(gauge), "entry 0 ('x'): counter vs gauge");

    // Same derived name over other operands.
    auto ratio = [](const char *num, const char *den) {
        StatGroup g("demo");
        g.addCounter("a", "ops", "a");
        g.addCounter("b", "ops", "b");
        g.addDerived("r", "", "ratio", num, den);
        return g;
    };
    EXPECT_EQ(ratio("a", "b").schemaDiff(ratio("b", "a")),
              "entry 2 ('r'): derived operands differ (a/b vs b/a)");
}

TEST(StatGroup, GrowableHistogramRoundTripsAndMergesAcrossSizes)
{
    // Two groups whose growable histogram grew differently: still one
    // schema (bucket counts are a value difference for growable), the
    // export carries the "growable" flag, and a merge is exact.
    auto makeGroup = [](double big_sample) {
        StatGroup g("demo", "cfg-a");
        g.addHistogram("occ", "entries", "occupancy", 4, 1.0,
                       /*growable=*/true);
        g.histogramAt(g.find("occ")->store).add(0.5);
        g.histogramAt(g.find("occ")->store).add(big_sample);
        return g;
    };
    StatGroup small = makeGroup(6.5);  // grew to 7 buckets
    StatGroup large = makeGroup(40.5); // grew to 41 buckets

    EXPECT_EQ(small.schemaDiff(large), "");

    std::string doc = large.toJson();
    EXPECT_NE(doc.find("\"growable\": true"), std::string::npos);
    StatGroup back;
    std::string err;
    ASSERT_TRUE(StatGroup::fromJson(doc, back, &err)) << err;
    EXPECT_TRUE(large.sameValues(back)) << large.diff(back);
    EXPECT_TRUE(
        back.histogramAt(back.find("occ")->store).growable());

    StatGroup merged = small;
    merged.merge(large);
    const Histogram &h = merged.histogramAt(merged.find("occ")->store);
    EXPECT_EQ(h.buckets(), 41u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(6), 1u);
    EXPECT_EQ(h.bucket(40), 1u);

    // deltaSince across growth: the delta holds only the new samples.
    StatGroup now = small;
    now.histogramAt(now.find("occ")->store).add(99.5);
    StatGroup delta = now.deltaSince(small);
    const Histogram &d = delta.histogramAt(delta.find("occ")->store);
    EXPECT_EQ(d.total(), 1u);
    EXPECT_EQ(d.bucket(99), 1u);
    EXPECT_EQ(d.bucket(0), 0u);

    // A growable histogram against a fixed one of the same shape is
    // still a schema mismatch.
    StatGroup fixed("demo", "cfg-a");
    fixed.addHistogram("occ", "entries", "occupancy", 4, 1.0);
    EXPECT_NE(small.schemaDiff(fixed).find("growable"),
              std::string::npos);
}

/**
 * Merging mismatched registries must fail loudly and say which entry
 * broke — a sharded or swept merge over runs from different machine
 * organizations (e.g. different cluster counts) is a harness bug,
 * and "schema mismatch" alone sent people diffing JSON by hand.
 */
TEST(StatGroupDeath, MergeMismatchNamesTheCulprit)
{
    StatGroup a = demoGroup();
    StatGroup extra = demoGroup();
    extra.addCounter("stalls", "cycles", "pipeline stalls");
    EXPECT_DEATH(a.merge(extra), "entry count 5 vs 6");

    StatGroup h1("demo", "left");
    h1.addHistogram("occ", "entries", "occupancy", 4, 1.0);
    StatGroup h2("demo", "right");
    h2.addHistogram("occ", "entries", "occupancy", 8, 1.0);
    EXPECT_DEATH(h1.merge(h2), "occ.*histogram shape");
    // The mismatch of per-cluster rows is the common real case:
    // merging a 1-cluster run into a 2-cluster run dies naming the
    // cluster counter, not with a generic size complaint.
    uarch::SimStats one(1), two(2);
    EXPECT_DEATH(one.group().merge(two.group()), "entry count");
}

TEST(StatGroupDeath, NamedReadOfAMissingOrWrongKindIsFatal)
{
    const StatGroup g = demoGroup();
    EXPECT_EXIT(g.counter("clock_mhz"), ::testing::ExitedWithCode(1),
                "no counter 'clock_mhz'");
    EXPECT_EXIT(g.value("nope"), ::testing::ExitedWithCode(1),
                "no metric 'nope'");
    EXPECT_EXIT(g.value("occupancy"), ::testing::ExitedWithCode(1),
                "'occupancy' is a histogram, not a scalar");
}

/**
 * The sweep-level merge property: merging the per-task groups of a
 * parallel run equals merging those of the serial run, for any
 * worker count — registry merge commutes with how the work was
 * scheduled. This is what makes per-preset aggregates in `cesp-sim
 * --sweep --jobs N` independent of N.
 */
TEST(StatGroup, SweepMergeEqualsSerialAccumulation)
{
    trace::SyntheticParams sp;
    sp.seed = 11;
    trace::TraceBuffer buf = trace::generateSynthetic(sp, 4000);
    sp.seed = 12;
    sp.working_set = 256 * 1024;
    trace::TraceBuffer miss = trace::generateSynthetic(sp, 4000);

    std::vector<core::SweepTask> tasks;
    for (int i = 0; i < 6; ++i)
        tasks.push_back({core::clusteredDependence2x4(),
                         i % 2 ? miss : buf});

    core::RunOptions ropt;
    ropt.jobs = 1;
    std::vector<SimStats> serial = core::run(tasks, ropt).stats;
    StatGroup reference = core::mergedStats(serial);

    // Hand accumulation of a few counters checks mergedStats itself.
    uint64_t cycles = 0, committed = 0, hist_total = 0;
    for (const SimStats &s : serial) {
        cycles += s.cycles();
        committed += s.committed();
        hist_total += s.buffer_occupancy().total();
    }
    EXPECT_EQ(reference.counter("cycles"), cycles);
    EXPECT_EQ(reference.counter("committed"), committed);
    const StatEntry *h = reference.find("buffer_occupancy");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(reference.histogramAt(h->store).total(), hist_total);

    for (unsigned jobs : {2u, 4u}) {
        ropt.jobs = jobs;
        std::vector<SimStats> par = core::run(tasks, ropt).stats;
        StatGroup merged = core::mergedStats(par);
        EXPECT_TRUE(merged.sameValues(reference))
            << jobs << " workers\n" << merged.diff(reference);
    }
}

TEST(StatGroup, MergedStatsOfNothingIsEmptyGroup)
{
    StatGroup g = core::mergedStats({});
    EXPECT_EQ(g.counter("cycles"), 0u);
    EXPECT_EQ(g.find("issued_cluster1"), nullptr);
}

/**
 * Per-cluster counters exist only for configured clusters: a
 * 2-cluster machine exports issued_cluster0/1 and nothing more, so
 * reports and JSON carry no phantom always-zero clusters.
 */
TEST(SimStats, PerClusterCountersBoundedByConfig)
{
    SimStats two = simulatePreset(core::clusteredDependence2x4(), 3);
    EXPECT_NE(two.group().find("issued_cluster0"), nullptr);
    EXPECT_NE(two.group().find("issued_cluster1"), nullptr);
    EXPECT_EQ(two.group().find("issued_cluster2"), nullptr);
    EXPECT_EQ(two.group().toJson().find("issued_cluster2"),
              std::string::npos);
    EXPECT_EQ(two.numClusters(), 2);

    SimStats one = simulatePreset(core::baseline8Way(), 3);
    EXPECT_NE(one.group().find("issued_cluster0"), nullptr);
    EXPECT_EQ(one.group().find("issued_cluster1"), nullptr);
    const SimStats &cone = one;
    EXPECT_EQ(cone.issued_per_cluster(0), cone.issued());
    EXPECT_EQ(cone.issued_per_cluster(1), 0u); // const: safe read
}

TEST(SimStats, ExportCarriesEveryReportedMetric)
{
    // Everything cesp-sim prints must be in the export: the headline
    // derived metrics, the stall breakdown, and the occupancy
    // histogram with its out-of-range counts.
    SimStats s = simulatePreset(core::dependence8x8(), 5);
    std::string json = s.group().toJson();
    for (const char *key :
         {"\"ipc\"", "\"mispredict_rate\"", "\"intercluster_pct\"",
          "\"dcache_miss_rate\"", "\"dispatch_stall_buffer\"",
          "\"dispatch_stall_regs\"", "\"dispatch_stall_rob\"",
          "\"buffer_occupancy\"", "\"issue_sizes\"",
          "\"underflow\"", "\"overflow\"", "\"schema_version\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(StatGroup, CsvListsEveryMetric)
{
    StatGroup g = demoGroup();
    std::string csv = g.toCsv();
    EXPECT_NE(csv.find("# cesp.statgroup schema_version=1"),
              std::string::npos);
    EXPECT_NE(csv.find("ticks,counter,cycles,40"),
              std::string::npos);
    EXPECT_NE(csv.find("occupancy.underflow"), std::string::npos);
    EXPECT_NE(csv.find("occupancy.overflow"), std::string::npos);
    // A field holding a delimiter or quote is quoted, quotes doubled.
    g.addCounter("quoted", "ops", "a \"b\", c");
    EXPECT_NE(g.toCsv().find(",\"a \"\"b\"\", c\"\n"), std::string::npos);
}
