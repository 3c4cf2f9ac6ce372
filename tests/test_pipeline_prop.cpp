/**
 * @file
 * Property-based pipeline tests: random-but-valid machine
 * configurations crossed with varied synthetic traces, asserting the
 * invariants that must hold for *every* configuration — the
 * simulator equivalent of the delay models' trend tests.
 */

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "trace/synthetic.hpp"
#include "uarch/pipeline.hpp"

using namespace cesp;
using namespace cesp::uarch;

namespace {

/** Deterministically generate the i-th random valid configuration. */
SimConfig
randomConfig(uint64_t seed)
{
    Rng rng(seed);
    SimConfig c;
    c.name = "fuzz-" + std::to_string(seed);

    int style = static_cast<int>(rng.below(5));
    switch (style) {
      case 0: // central window, single cluster
        break;
      case 1: // dependence FIFOs, single cluster
        c.style = IssueBufferStyle::Fifos;
        c.steering = SteeringPolicy::DependenceFifo;
        c.fifos_per_cluster = 2 + static_cast<int>(rng.below(14));
        c.fifo_depth = 2 + static_cast<int>(rng.below(14));
        break;
      case 2: // clustered dependence FIFOs
        c.style = IssueBufferStyle::Fifos;
        c.steering = SteeringPolicy::DependenceFifo;
        c.num_clusters = 2;
        c.fifos_per_cluster = 2 + static_cast<int>(rng.below(6));
        c.fifo_depth = 2 + static_cast<int>(rng.below(14));
        c.fus_per_cluster = 4;
        break;
      case 3: // per-cluster windows, random or window-fifo steering
        c.style = IssueBufferStyle::PerClusterWindow;
        c.num_clusters = 2;
        c.window_size = 8 << rng.below(3);
        c.fus_per_cluster = 4;
        c.steering = rng.chance(0.5) ? SteeringPolicy::Random
                                     : SteeringPolicy::WindowFifo;
        break;
      default: // exec-driven central window
        c.steering = SteeringPolicy::ExecutionDriven;
        c.num_clusters = 2;
        c.fus_per_cluster = 4;
        break;
    }

    if (c.style == IssueBufferStyle::CentralWindow)
        c.window_size = 8 << rng.below(5); // 8..128

    c.fetch_width = 2 << rng.below(3);     // 2..8
    c.rename_width = c.fetch_width;
    c.issue_width = 2 << rng.below(3);
    c.retire_width = 4 << rng.below(3);
    c.max_inflight = 32 << rng.below(3);   // 32..128
    c.frontend_latency = 1 + static_cast<int>(rng.below(4));
    c.fetch_queue = c.fetch_width * 3;
    c.ls_ports = 1 + static_cast<int>(rng.below(4));
    c.inter_cluster_extra = static_cast<int>(rng.below(3));
    c.local_bypass_extra = static_cast<int>(rng.below(2));
    c.wakeup_select_stages = 1 + static_cast<int>(rng.below(2));
    c.select_policy = static_cast<SelectPolicy>(rng.below(3));
    if (c.style == IssueBufferStyle::CentralWindow)
        c.window_compaction = rng.chance(0.7);
    c.random_seed = seed;
    return c;
}

trace::TraceBuffer
randomTrace(uint64_t seed)
{
    Rng rng(seed * 977);
    trace::SyntheticParams p;
    p.seed = seed;
    p.load_frac = 0.05 + 0.25 * rng.uniform();
    p.store_frac = 0.02 + 0.15 * rng.uniform();
    p.branch_frac = 0.05 + 0.2 * rng.uniform();
    p.mean_dep_distance = 1.0 + 14.0 * rng.uniform();
    p.taken_frac = 0.3 + 0.5 * rng.uniform();
    p.noisy_branch_frac = rng.uniform();
    p.working_set = 1024u << rng.below(8);
    return trace::generateSynthetic(p, 15000);
}

} // namespace

class PipelineFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PipelineFuzz, InvariantsHoldForRandomConfig)
{
    uint64_t seed = GetParam();
    SimConfig cfg = randomConfig(seed);
    ASSERT_NO_FATAL_FAILURE(cfg.validate());
    trace::TraceBuffer buf = randomTrace(seed);

    SimStats s = simulate(cfg, buf);

    // Conservation: everything fetched flows through every stage.
    EXPECT_EQ(s.committed(), buf.size()) << cfg.name;
    EXPECT_EQ(s.fetched(), s.committed()) << cfg.name;
    EXPECT_EQ(s.dispatched(), s.committed()) << cfg.name;
    EXPECT_EQ(s.issued(), s.committed()) << cfg.name;

    // Per-cluster issue accounting sums to the total. Reads go
    // through the const accessor, which returns zero for clusters
    // beyond the configured count (no registry row exists for them).
    const SimStats &cs = s;
    uint64_t per_cluster = 0;
    for (int c = 0; c < kMaxClusters; ++c) {
        if (c >= cfg.num_clusters) {
            EXPECT_EQ(cs.issued_per_cluster(c), 0u) << cfg.name;
        }
        per_cluster += cs.issued_per_cluster(c);
    }
    EXPECT_EQ(per_cluster, s.issued()) << cfg.name;

    // IPC bounded by the narrowest machine width.
    double width = std::min({cfg.fetch_width, cfg.issue_width,
                             cfg.retire_width});
    EXPECT_LE(s.ipc(), width + 1e-9) << cfg.name;
    EXPECT_GT(s.ipc(), 0.0) << cfg.name;

    // Branch accounting.
    EXPECT_LE(s.mispredicts(), s.cond_branches()) << cfg.name;

    // Single-cluster machines never use inter-cluster bypasses.
    if (cfg.num_clusters == 1) {
        EXPECT_EQ(s.intercluster_bypasses(), 0u) << cfg.name;
    }
    EXPECT_LE(s.intercluster_bypasses(), s.committed()) << cfg.name;

    // Histograms cover every simulated cycle.
    EXPECT_EQ(s.issue_sizes().total(), s.cycles()) << cfg.name;
    EXPECT_EQ(s.buffer_occupancy().total(), s.cycles()) << cfg.name;

    // Determinism.
    SimStats again = simulate(cfg, buf);
    EXPECT_EQ(again.cycles(), s.cycles()) << cfg.name;
    EXPECT_EQ(again.intercluster_bypasses(), s.intercluster_bypasses())
        << cfg.name;
}

INSTANTIATE_TEST_SUITE_P(FortySeeds, PipelineFuzz,
                         ::testing::Range<uint64_t>(1, 41));

TEST(PipelineFuzzExtra, TightResourceCornerCases)
{
    // Deliberately hostile shapes that stress stall paths.
    trace::TraceBuffer buf =
        trace::generateSynthetic({.mean_dep_distance = 2.0}, 8000);

    {
        SimConfig c;
        c.name = "tiny-window";
        c.window_size = 2;
        SimStats s = simulate(c, buf);
        EXPECT_EQ(s.committed(), 8000u);
    }
    {
        SimConfig c;
        c.name = "one-fifo";
        c.style = IssueBufferStyle::Fifos;
        c.steering = SteeringPolicy::DependenceFifo;
        c.fifos_per_cluster = 1;
        c.fifo_depth = 1;
        SimStats s = simulate(c, buf);
        EXPECT_EQ(s.committed(), 8000u);
        EXPECT_LE(s.ipc(), 1.0 + 1e-9);
    }
    {
        SimConfig c;
        c.name = "min-regs";
        c.phys_int_regs = 33; // a single rename in flight per class
        c.phys_fp_regs = 33;
        SimStats s = simulate(c, buf);
        EXPECT_EQ(s.committed(), 8000u);
    }
    {
        SimConfig c;
        c.name = "one-port";
        c.ls_ports = 1;
        SimStats s = simulate(c, buf);
        EXPECT_EQ(s.committed(), 8000u);
    }
    {
        SimConfig c;
        c.name = "tiny-rob";
        c.max_inflight = 4;
        c.window_size = 4;
        c.fetch_queue = 8;
        SimStats s = simulate(c, buf);
        EXPECT_EQ(s.committed(), 8000u);
    }
}
