/**
 * @file
 * The configuration table (src/uarch/config.hpp). For every row: one
 * past either end of its range is fatal and names the field, both in
 * validate() (through uarch::simulate) and in setField (the
 * `cesp-sim --set` path); either end itself simulates 1,000 synthetic
 * records, or a rule between fields rejects it (exit 1), on a preset
 * where the field takes effect. Nothing in between may panic, abort
 * or throw.
 */

#include <gtest/gtest.h>

#include <climits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/presets.hpp"
#include "trace/synthetic.hpp"
#include "uarch/config.hpp"
#include "uarch/pipeline.hpp"

using namespace cesp;
using uarch::ConfigField;
using uarch::SimConfig;

namespace {

struct Row
{
    std::string path;
    long long min;
    long long max;
    bool is_bool;
};

std::vector<Row>
rows()
{
    std::vector<Row> r;
    const SimConfig c;
    uarch::forEachField(c, [&](const ConfigField &f, const auto &v) {
        r.push_back({f.path, f.min, f.max,
                     std::is_same_v<std::decay_t<decltype(v)>, bool>});
    });
    return r;
}

/** A preset on which the field at @p path takes effect. */
SimConfig
presetFor(const std::string &path)
{
    if (path.starts_with("fifo"))
        return core::dependence8x8();
    if (path.starts_with("concept_"))
        return core::clusteredWindows2x4();
    if (path == "num_clusters" || path == "inter_cluster_extra")
        return core::clusteredDependence4x4();
    if (path == "random_seed")
        return core::clusteredRandom2x4();
    SimConfig c = core::baseline8Way();
    c.l2.enabled = path.starts_with("l2.");
    return c;
}

/** Store @p v in the field at @p path, past setField's range check. */
void
assign(SimConfig &c, const std::string &path, long long v)
{
    uarch::forEachField(c, [&](const ConfigField &f, auto &m) {
        if (f.path == path)
            m = static_cast<std::decay_t<decltype(m)>>(v);
    });
}

const trace::TraceBuffer &
records()
{
    static const trace::TraceBuffer buf =
        trace::generateSynthetic(trace::SyntheticParams{}, 1000);
    return buf;
}

/**
 * The range ends that a rule between fields rejects on presetFor's
 * machine (true = the max end), with that rule's message.
 */
const std::map<std::pair<std::string, bool>, std::string> kRejectedEnds = {
    {{"fetch_width", true}, "fetch_queue 24 below fetch_width 1024"},
    {{"fetch_queue", false}, "fetch_queue 1 below fetch_width 8"},
    {{"fifos_per_cluster", true}, "FIFO shape 65536x8 over 65536"},
    {{"fifo_depth", true}, "FIFO shape 8x65536 over 65536"},
    {{"concept_fifos_per_cluster", true},
     "conceptual FIFO shape 65536x4 over 65536"},
    {{"concept_fifo_depth", true}, "conceptual FIFO shape 8x65536 over"},
    {{"fu_mix.alu", true}, "typed FU mix"},
    {{"fu_mix.mem", true}, "typed FU mix"},
    {{"fu_mix.branch", true}, "typed FU mix"},
    {{"dcache.size_bytes", false}, "dcache.size_bytes 1, associativity 2"},
    {{"l2.size_bytes", false}, "l2.size_bytes 1, associativity 4"},
    {{"l2.memory_latency", false}, "memory latency below the L2 hit"},
};

} // namespace

TEST(ConfigTable, RowsAreDistinctDocumentedAndHoldTheirDefaults)
{
    std::set<std::string> paths;
    const SimConfig c;
    uarch::forEachField(c, [&](const ConfigField &f, const auto &v) {
        EXPECT_TRUE(paths.insert(f.path).second) << f.path;
        EXPECT_NE(std::string(f.doc), "") << f.path;
        EXPECT_LE(f.min, f.max) << f.path;
        EXPECT_GE(static_cast<long long>(v), f.min) << f.path;
        EXPECT_LE(static_cast<long long>(v), f.max) << f.path;
    });
    // SimConfig's 25 rows, then fu_mix 3, dcache 5, l2 5 and bpred 4.
    EXPECT_EQ(paths.size(), 42u);
    c.validate();
}

TEST(ConfigTable, SetFieldWritesTheNamedFieldOnly)
{
    SimConfig c;
    uarch::setField(c, "dcache.miss_latency", "12");
    uarch::setField(c, "bpred.perfect", "1");
    uarch::setField(c, "window_size", "32");
    SimConfig want;
    want.dcache.miss_latency = 12;
    want.bpred.perfect = true;
    want.window_size = 32;
    EXPECT_EQ(c, want);
}

TEST(ConfigTableDeath, OnePastEitherEndIsFatalNamingTheField)
{
    for (const Row &r : rows()) {
        SimConfig c = presetFor(r.path);
        const std::string below = std::to_string(r.min - 1);
        const std::string above =
            std::to_string(static_cast<unsigned long long>(r.max) + 1);
        for (const std::string &v : {below, above})
            EXPECT_EXIT(uarch::setField(c, r.path, v),
                        ::testing::ExitedWithCode(1),
                        "invalid value '" + v + "' for " + r.path)
                << r.path << "=" << v;
        if (r.is_bool)
            continue; // a bool holds only 0 and 1
        SimConfig lo = c;
        assign(lo, r.path, r.min - 1);
        EXPECT_EXIT(uarch::simulate(lo, records()),
                    ::testing::ExitedWithCode(1),
                    " " + r.path + " .* outside")
            << r.path << " below";
        if (r.max == LLONG_MAX)
            continue; // a long long cannot carry max + 1
        SimConfig hi = c;
        assign(hi, r.path, r.max + 1);
        EXPECT_EXIT(uarch::simulate(hi, records()),
                    ::testing::ExitedWithCode(1),
                    " " + r.path + " " + above + " outside")
            << r.path << " above";
    }
}

TEST(ConfigTableDeath, EitherEndSimulatesOrBreaksARuleBetweenFields)
{
    for (const Row &r : rows()) {
        for (bool at_max : {false, true}) {
            SimConfig c = presetFor(r.path);
            assign(c, r.path, at_max ? r.max : r.min);
            auto rejected = kRejectedEnds.find({r.path, at_max});
            if (rejected != kRejectedEnds.end()) {
                EXPECT_EXIT(uarch::simulate(c, records()),
                            ::testing::ExitedWithCode(1), rejected->second)
                    << r.path << (at_max ? " max" : " min");
                continue;
            }
            EXPECT_EQ(uarch::simulate(c, records()).committed(), 1000u)
                << r.path << (at_max ? " max" : " min");
        }
    }
}

// Values that uarch::simulate once accepted (running at a wrong IPC)
// or died on (a wakeup-wheel or FIFO-set panic, an uncaught
// std::bad_alloc). Each is now a range error naming the field.
TEST(ConfigTableDeath, FormerlyAcceptedValuesAreRangeErrors)
{
    const struct
    {
        SimConfig base;
        const char *path;
        long long value;
    } probes[] = {
        {core::baseline8Way(), "fu_latency", 0},
        {core::baseline8Way(), "fu_latency", -1},
        {core::baseline8Way(), "fu_latency", -100},
        {core::baseline8Way(), "dcache.miss_latency", -5},
        {core::clusteredWindows2x4(), "concept_fifo_depth", 0},
        {core::clusteredWindows2x4(), "concept_fifos_per_cluster", 0},
        {core::baseline8Way(), "fetch_queue", 100000000},
    };
    for (const auto &p : probes) {
        SimConfig c = p.base;
        assign(c, p.path, p.value);
        EXPECT_EXIT(uarch::simulate(c, records()),
                    ::testing::ExitedWithCode(1),
                    std::string(" ") + p.path + " " +
                        std::to_string(p.value) + " outside")
            << p.path << "=" << p.value;
    }
}

TEST(ConfigTableDeath, RulesBetweenFieldsStayChecked)
{
    SimConfig slow = core::baseline8Way();
    slow.wakeup_select_stages = 10000;
    slow.inter_cluster_extra = 10000;
    EXPECT_EXIT(uarch::simulate(slow, records()),
                ::testing::ExitedWithCode(1),
                "latencies add up to 50035 cycles");
    SimConfig odd = core::baseline8Way();
    odd.bpred.table_entries = 1000;
    EXPECT_EXIT(uarch::simulate(odd, records()),
                ::testing::ExitedWithCode(1),
                "bpred.table_entries 1000 is not a power of two");
    odd.bpred.kind = uarch::BpredKind::AlwaysTaken; // no table to index
    EXPECT_EQ(uarch::simulate(odd, records()).committed(), 1000u);
    SimConfig line = core::baseline8Way();
    line.dcache.line_bytes = 24;
    EXPECT_EXIT(uarch::simulate(line, records()),
                ::testing::ExitedWithCode(1), "line_bytes 24 give no");
    SimConfig mixed = core::baseline8Way();
    mixed.steering = uarch::SteeringPolicy::DependenceFifo;
    EXPECT_EXIT(uarch::simulate(mixed, records()),
                ::testing::ExitedWithCode(1),
                "steering policy 1 incompatible with issue-buffer style 0");
    EXPECT_EXIT(uarch::setField(line, "nosuch", "1"),
                ::testing::ExitedWithCode(1),
                "unknown config field 'nosuch'");
}
