/**
 * @file
 * Exact identities between issue-buffer organizations. Each pair is
 * two machines that share no buffer or steering code, yet must agree
 * on every statistic except a named list of steering counters, which
 * count one side's dispatch decisions. Event-vs-scan parity and the
 * goldens check each organization against itself; these tie one
 * organization to another. DESIGN.md §5 states each identity.
 *
 * Every pair runs on the seven kernels and on tomcatv, whose FP
 * destinations none of the others has (their first 100,000 records),
 * and on two seeded synthetic traces, under both issue models.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "core/presets.hpp"
#include "trace/synthetic.hpp"
#include "uarch/pipeline.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;
using uarch::IssueModel;
using uarch::SimConfig;
using uarch::SimStats;

namespace {

constexpr uint64_t kKernelRecords = 100000;
constexpr uint64_t kSyntheticRecords = 20000;

struct Identity
{
    std::string name;
    SimConfig lhs;
    SimConfig rhs;
    /** Counters left out of the comparison. */
    std::vector<std::string> ignored;
};

/** @p c cut to one cluster with a 64-entry window and 8 FUs. */
SimConfig
oneCluster(SimConfig c)
{
    c.num_clusters = 1;
    c.window_size = 64;
    c.fus_per_cluster = 8;
    return c;
}

SimConfig
stages(SimConfig c, int s)
{
    c.wakeup_select_stages = s;
    return c;
}

SimConfig
localBypass(SimConfig c, int extra)
{
    c.local_bypass_extra = extra;
    return c;
}

std::vector<Identity>
identities()
{
    const std::vector<std::string> steer = {
        "steer_new_fifo", "steer_chain_left", "steer_chain_right"};

    SimConfig fifos = core::dependence8x8();
    fifos.fifos_per_cluster = 64;
    fifos.fifo_depth = 1;

    SimConfig windows = oneCluster(core::clusteredWindows2x4());
    windows.concept_fifos_per_cluster = 64;
    windows.concept_fifo_depth = 64;

    std::vector<Identity> ids = {
        {"Fifos64x1", fifos, core::baseline8Way(), {"steer_new_fifo"}},
        {"Windows1Cluster", windows, core::baseline8Way(), steer},
        {"Random1Cluster", oneCluster(core::clusteredRandom2x4()),
         core::baseline8Way(), {}},
    };
    for (int s : {2, 3}) {
        ids.push_back({"Stages" + std::to_string(s) + "Window",
                       stages(core::baseline8Way(), s),
                       localBypass(core::baseline8Way(), s - 1), {}});
        ids.push_back({"Stages" + std::to_string(s) + "Fifos",
                       stages(core::dependence8x8(), s),
                       localBypass(core::dependence8x8(), s - 1), {}});
    }
    return ids;
}

struct Case
{
    Identity id;
    IssueModel model;
};

/** The test's name suffix; ctest names each case by it. */
void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.id.name
        << (c.model == IssueModel::EventDriven ? "_Event" : "_Scan");
}

std::vector<Case>
cases()
{
    std::vector<Case> out;
    for (const Identity &id : identities())
        for (IssueModel m : {IssueModel::EventDriven, IssueModel::LegacyScan})
            out.push_back({id, m});
    return out;
}

/** @p s with the ignored counters zeroed. */
StatGroup
compared(const SimStats &s, const std::vector<std::string> &ignored)
{
    StatGroup g = s.group();
    for (const std::string &name : ignored) {
        const StatEntry *e = g.find(name);
        EXPECT_TRUE(e && e->kind == StatKind::Counter) << name;
        if (e)
            g.counterAt(e->store) = 0;
    }
    return g;
}

class Identities : public testing::TestWithParam<Case>
{
  protected:
    void
    expectSame(trace::TraceView trace, uarch::RunLimits limits,
               const std::string &what)
    {
        const auto &[id, model] = GetParam();
        const SimConfig &lhs = id.lhs, &rhs = id.rhs;
        limits.issue_model = model;
        StatGroup a = compared(uarch::simulate(lhs, trace, limits),
                               id.ignored);
        StatGroup b = compared(uarch::simulate(rhs, trace, limits),
                               id.ignored);
        EXPECT_GT(a.counter("committed"), 0u) << what;
        EXPECT_TRUE(a.sameValues(b))
            << id.name << " on " << what << " (" << lhs.name << " vs "
            << rhs.name << "):\n" << a.diff(b);
    }
};

} // namespace

TEST_P(Identities, EveryStatisticMatches)
{
    uarch::RunLimits limits;
    limits.max_instructions = kKernelRecords;
    std::vector<std::string> kernels = workloads::workloadNames();
    kernels.push_back("tomcatv");
    for (const std::string &w : kernels)
        expectSame(core::cachedWorkloadTraceView(w), limits, w);
    for (uint64_t seed : {3ULL, 29ULL}) {
        trace::TraceBuffer buf =
            trace::generateSynthetic({.seed = seed}, kSyntheticRecords);
        expectSame(buf, {}, "synthetic seed " + std::to_string(seed));
    }
}

INSTANTIATE_TEST_SUITE_P(Pairs, Identities, testing::ValuesIn(cases()));
