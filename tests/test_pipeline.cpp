/**
 * @file
 * Timing tests for the pipeline: hand-built traces with analytically
 * known schedules (dependence chains, issue/fetch/retire bounds,
 * cache hit/miss latencies, store-address gating, forwarding,
 * misprediction stalls, cluster bypass timing, structural stalls).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <type_traits>

#include "core/presets.hpp"
#include "trace/synthetic.hpp"
#include "uarch/pipeline.hpp"

using namespace cesp;
using namespace cesp::uarch;
using trace::TraceBuffer;
using trace::TraceOp;

namespace {

/** Builds traces with auto-incrementing pcs. */
class TraceBuilder
{
  public:
    TraceOp &
    add()
    {
        TraceOp t;
        t.pc = pc_;
        pc_ += 4;
        buf_.append(t);
        return last();
    }

    TraceOp &
    alu(int dst, int src1 = -1, int src2 = -1)
    {
        TraceOp &t = add();
        t.op = isa::Opcode::ADD;
        t.cls = isa::OpClass::IntAlu;
        t.dst = static_cast<int8_t>(dst);
        t.src1 = static_cast<int8_t>(src1);
        t.src2 = static_cast<int8_t>(src2);
        return t;
    }

    TraceOp &
    load(int dst, uint32_t addr, int base = -1)
    {
        TraceOp &t = add();
        t.op = isa::Opcode::LW;
        t.cls = isa::OpClass::Load;
        t.dst = static_cast<int8_t>(dst);
        t.src1 = static_cast<int8_t>(base);
        t.mem_addr = addr;
        t.mem_size = 4;
        return t;
    }

    TraceOp &
    store(uint32_t addr, int base = -1, int data = -1)
    {
        TraceOp &t = add();
        t.op = isa::Opcode::SW;
        t.cls = isa::OpClass::Store;
        t.src1 = static_cast<int8_t>(base);
        t.src2 = static_cast<int8_t>(data);
        t.mem_addr = addr;
        t.mem_size = 4;
        return t;
    }

    TraceOp &
    branch(bool taken, int src1 = -1)
    {
        TraceOp &t = add();
        t.op = isa::Opcode::BNE;
        t.cls = isa::OpClass::BranchCond;
        t.src1 = static_cast<int8_t>(src1);
        t.taken = taken;
        if (taken)
            pc_ = t.pc + 64;
        return t;
    }

    TraceBuffer &buf() { return buf_; }

  private:
    TraceBuffer buf_;
    TraceOp &
    last()
    {
        return const_cast<TraceOp &>(buf_[buf_.size() - 1]);
    }
    uint32_t pc_ = 0x1000;
};

SimConfig
windowCfg()
{
    SimConfig c;
    c.name = "test-window";
    return c;
}

SimConfig
fifoCfg()
{
    SimConfig c;
    c.name = "test-fifo";
    c.style = IssueBufferStyle::Fifos;
    c.steering = SteeringPolicy::DependenceFifo;
    return c;
}

/** Run and capture per-seq issue cycles. */
SimStats
runWithIssueCycles(const SimConfig &cfg, TraceBuffer &buf,
                   std::map<uint64_t, uint64_t> &issue_cycles)
{
    Pipeline p(cfg, buf);
    p.setIssueObserver([&](const DynInst &d) {
        issue_cycles[d.seq] = d.issue_cycle;
    });
    return p.run();
}

} // namespace

// A Pipeline holds a view of its trace: constructing one from a
// temporary buffer would leave it reading freed records.
static_assert(!std::is_constructible_v<Pipeline, const SimConfig &,
                                       TraceBuffer &&>);
static_assert(std::is_constructible_v<Pipeline, const SimConfig &,
                                      TraceBuffer &>);

TEST(Pipeline, EmptyTraceTerminates)
{
    TraceBuffer empty;
    SimStats s = simulate(windowCfg(), empty);
    EXPECT_EQ(s.committed(), 0u);
    EXPECT_LT(s.cycles(), 5u);
}

TEST(Pipeline, SerialChainIssuesBackToBack)
{
    TraceBuilder tb;
    const int n = 64;
    tb.alu(1);
    for (int i = 1; i < n; ++i)
        tb.alu(1, 1); // each reads the previous result
    std::map<uint64_t, uint64_t> issue;
    SimStats s = runWithIssueCycles(windowCfg(), tb.buf(), issue);
    EXPECT_EQ(s.committed(), static_cast<uint64_t>(n));
    // Dependent single-cycle ops issue in consecutive cycles (the
    // atomic wakeup+select property of Section 4.5).
    for (int i = 1; i < n; ++i)
        EXPECT_EQ(issue[static_cast<uint64_t>(i)],
                  issue[static_cast<uint64_t>(i - 1)] + 1)
            << i;
    EXPECT_NEAR(s.ipc(), 1.0, 0.15);
}

TEST(Pipeline, IndependentOpsSaturateMachineWidth)
{
    TraceBuilder tb;
    const int n = 800;
    for (int i = 0; i < n; ++i)
        tb.alu(1 + (i % 24));
    SimStats s = simulate(windowCfg(), tb.buf());
    EXPECT_EQ(s.committed(), static_cast<uint64_t>(n));
    EXPECT_GT(s.ipc(), 7.0); // 8-wide minus fill
}

TEST(Pipeline, IssueWidthBoundsIpc)
{
    TraceBuilder tb;
    for (int i = 0; i < 800; ++i)
        tb.alu(1 + (i % 24));
    SimConfig c = windowCfg();
    c.issue_width = 4;
    SimStats s = simulate(c, tb.buf());
    EXPECT_LE(s.ipc(), 4.0 + 1e-9);
    EXPECT_GT(s.ipc(), 3.6);
}

TEST(Pipeline, FuCountBoundsIpc)
{
    TraceBuilder tb;
    for (int i = 0; i < 800; ++i)
        tb.alu(1 + (i % 24));
    SimConfig c = windowCfg();
    c.fus_per_cluster = 2;
    SimStats s = simulate(c, tb.buf());
    EXPECT_LE(s.ipc(), 2.0 + 1e-9);
    EXPECT_GT(s.ipc(), 1.8);
}

TEST(Pipeline, RetireWidthBoundsIpc)
{
    TraceBuilder tb;
    for (int i = 0; i < 800; ++i)
        tb.alu(1 + (i % 24));
    SimConfig c = windowCfg();
    c.retire_width = 3;
    SimStats s = simulate(c, tb.buf());
    EXPECT_LE(s.ipc(), 3.0 + 1e-9);
    EXPECT_GT(s.ipc(), 2.7);
}

TEST(Pipeline, FetchWidthBoundsIpc)
{
    TraceBuilder tb;
    for (int i = 0; i < 800; ++i)
        tb.alu(1 + (i % 24));
    SimConfig c = windowCfg();
    c.fetch_width = 5;
    SimStats s = simulate(c, tb.buf());
    EXPECT_LE(s.ipc(), 5.0 + 1e-9);
    EXPECT_GT(s.ipc(), 4.5);
}

TEST(Pipeline, CacheHitLoadLatencyIsOneCycle)
{
    TraceBuilder tb;
    tb.load(1, 0x2000);        // cold miss warms the line
    const int n = 32;
    for (int i = 0; i < n; ++i)
        tb.load(1, 0x2000, 1); // dependent hits, 1 cycle apart
    std::map<uint64_t, uint64_t> issue;
    SimStats s = runWithIssueCycles(windowCfg(), tb.buf(), issue);
    EXPECT_EQ(s.dcache_misses(), 1u);
    for (int i = 2; i <= n; ++i)
        EXPECT_EQ(issue[static_cast<uint64_t>(i)],
                  issue[static_cast<uint64_t>(i - 1)] + 1)
            << i;
}

TEST(Pipeline, CacheMissCostsSixCycles)
{
    TraceBuilder tb;
    const int n = 32;
    // Dependent loads to distinct lines: every access cold-misses.
    for (int i = 0; i < n; ++i)
        tb.load(1, 0x10000 + static_cast<uint32_t>(i) * 4096,
                i == 0 ? -1 : 1);
    std::map<uint64_t, uint64_t> issue;
    SimStats s = runWithIssueCycles(windowCfg(), tb.buf(), issue);
    EXPECT_EQ(s.dcache_misses(), static_cast<uint64_t>(n));
    for (int i = 1; i < n; ++i)
        EXPECT_EQ(issue[static_cast<uint64_t>(i)],
                  issue[static_cast<uint64_t>(i - 1)] + 6)
            << i;
    EXPECT_LT(s.ipc(), 0.25);
}

TEST(Pipeline, StoreToLoadForwardingAvoidsCacheLatency)
{
    TraceBuilder tb;
    tb.alu(2);                 // produce the store data
    tb.store(0x9000, -1, 2);   // store (line not cached)
    tb.load(1, 0x9000);        // forwarded: no 6-cycle miss
    const int n = 16;
    for (int i = 0; i < n; ++i)
        tb.alu(1, 1);
    std::map<uint64_t, uint64_t> issue;
    SimStats s = runWithIssueCycles(windowCfg(), tb.buf(), issue);
    EXPECT_GE(s.store_forwards(), 1u);
    // The load's dependent issues one cycle after the load.
    EXPECT_EQ(issue[3], issue[2] + 1);
}

TEST(Pipeline, LoadWaitsForOlderStoreAddress)
{
    // A store whose address depends on a long serial chain gates a
    // younger (independent) load.
    TraceBuilder tb;
    const int chain = 20;
    tb.alu(5);
    for (int i = 1; i < chain; ++i)
        tb.alu(5, 5);
    tb.store(0x4000, 5, -1);   // address from the chain
    tb.load(1, 0x8000);        // different address, but must wait
    std::map<uint64_t, uint64_t> issue;
    runWithIssueCycles(windowCfg(), tb.buf(), issue);
    uint64_t store_seq = chain;
    uint64_t load_seq = chain + 1;
    EXPECT_GE(issue[load_seq], issue[store_seq]);
}

TEST(Pipeline, MispredictedBranchStallsFetch)
{
    // Fresh gshare counters predict weakly not-taken; a taken branch
    // on first encounter mispredicts.
    TraceBuilder tb1;
    for (int i = 0; i < 16; ++i)
        tb1.alu(1 + i % 8);
    tb1.branch(false); // correctly predicted
    for (int i = 0; i < 16; ++i)
        tb1.alu(1 + i % 8);
    SimStats ok = simulate(windowCfg(), tb1.buf());
    EXPECT_EQ(ok.mispredicts(), 0u);

    TraceBuilder tb2;
    for (int i = 0; i < 16; ++i)
        tb2.alu(1 + i % 8);
    tb2.branch(true); // mispredicted
    for (int i = 0; i < 16; ++i)
        tb2.alu(1 + i % 8);
    SimStats bad = simulate(windowCfg(), tb2.buf());
    EXPECT_EQ(bad.mispredicts(), 1u);
    EXPECT_EQ(bad.cond_branches(), 1u);
    // The refill penalty shows up as extra cycles.
    EXPECT_GE(bad.cycles(), ok.cycles() + 3);
}

TEST(Pipeline, MispredictResolutionWaitsForBranchOperand)
{
    // The branch depends on a serial chain: recovery cannot begin
    // until the chain produces the condition.
    TraceBuilder tb;
    const int chain = 24;
    tb.alu(5);
    for (int i = 1; i < chain; ++i)
        tb.alu(5, 5);
    tb.branch(true, 5);
    for (int i = 0; i < 8; ++i)
        tb.alu(1);
    std::map<uint64_t, uint64_t> issue;
    SimStats s = runWithIssueCycles(windowCfg(), tb.buf(), issue);
    EXPECT_EQ(s.mispredicts(), 1u);
    // Post-branch instructions issue only after the branch resolves.
    EXPECT_GT(issue[chain + 1], issue[chain]);
    // cycles ~ chain + refill, far above the no-dependence case.
    EXPECT_GE(s.cycles(), static_cast<uint64_t>(chain + 6));
}

TEST(Pipeline, WindowFullCausesDispatchStalls)
{
    TraceBuilder tb;
    // A long-latency head-of-window chain backs the window up.
    for (int i = 0; i < 64; ++i)
        tb.load(1, 0x10000 + static_cast<uint32_t>(i) * 4096,
                i == 0 ? -1 : 1);
    for (int i = 0; i < 200; ++i)
        tb.alu(2 + i % 8);
    SimConfig c = windowCfg();
    c.window_size = 8;
    SimStats s = simulate(c, tb.buf());
    EXPECT_GT(s.dispatch_stall_buffer(), 0u);
}

TEST(Pipeline, RobLimitCausesDispatchStalls)
{
    TraceBuilder tb;
    for (int i = 0; i < 64; ++i)
        tb.load(1, 0x10000 + static_cast<uint32_t>(i) * 4096,
                i == 0 ? -1 : 1);
    SimConfig c = windowCfg();
    c.max_inflight = 16;
    c.window_size = 16;
    SimStats s = simulate(c, tb.buf());
    EXPECT_GT(s.dispatch_stall_rob(), 0u);
}

TEST(Pipeline, PhysRegExhaustionCausesDispatchStalls)
{
    TraceBuilder tb;
    // Many in-flight destinations behind a serialized miss chain.
    for (int i = 0; i < 64; ++i)
        tb.load(1, 0x10000 + static_cast<uint32_t>(i) * 4096,
                i == 0 ? -1 : 1);
    for (int i = 0; i < 100; ++i)
        tb.alu(2 + i % 8);
    SimConfig c = windowCfg();
    c.phys_int_regs = 40; // only 8 renames in flight
    SimStats s = simulate(c, tb.buf());
    EXPECT_GT(s.dispatch_stall_regs(), 0u);
}

TEST(Pipeline, LsPortsLimitLoadIssue)
{
    TraceBuilder tb;
    // Independent loads to the same warm line.
    tb.load(31, 0x2000);
    for (int i = 0; i < 400; ++i)
        tb.load(1 + (i % 24), 0x2000);
    SimConfig c = windowCfg();
    c.ls_ports = 2;
    SimStats s = simulate(c, tb.buf());
    EXPECT_LE(s.ipc(), 2.0 + 0.01);
    SimConfig c4 = windowCfg(); // default 4 ports
    SimStats s4 = simulate(c4, tb.buf());
    EXPECT_GT(s4.ipc(), s.ipc() * 1.5);
}

TEST(Pipeline, FifoMachineSerialChainAlsoBackToBack)
{
    TraceBuilder tb;
    const int n = 64;
    tb.alu(1);
    for (int i = 1; i < n; ++i)
        tb.alu(1, 1);
    std::map<uint64_t, uint64_t> issue;
    SimStats s = runWithIssueCycles(fifoCfg(), tb.buf(), issue);
    EXPECT_EQ(s.committed(), static_cast<uint64_t>(n));
    for (int i = 1; i < n; ++i)
        EXPECT_EQ(issue[static_cast<uint64_t>(i)],
                  issue[static_cast<uint64_t>(i - 1)] + 1)
            << i;
}

TEST(Pipeline, FifoMachineRunsParallelChains)
{
    // Four interleaved serial chains: the FIFO machine extracts the
    // same ILP as the window machine (they land in separate FIFOs).
    TraceBuilder tb;
    const int rounds = 100;
    for (int r = 0; r < rounds; ++r)
        for (int c = 0; c < 4; ++c)
            tb.alu(1 + c, r == 0 ? -1 : 1 + c);
    SimStats sw = simulate(windowCfg(), tb.buf());
    SimStats sf = simulate(fifoCfg(), tb.buf());
    EXPECT_NEAR(sf.ipc(), sw.ipc(), 0.3);
    EXPECT_GT(sf.ipc(), 3.0);
}

TEST(Pipeline, FifoIssuesOnlyFromHeads)
{
    // In one FIFO, a ready instruction behind a stalled head must
    // wait; the window machine can issue it immediately.
    TraceBuilder tb;
    tb.load(1, 0x30000);  // miss at the head of a chain
    tb.alu(2, 1);         // dependent on the load -> same FIFO
    tb.alu(3, 2);         // dependent -> same FIFO
    SimConfig f = fifoCfg();
    std::map<uint64_t, uint64_t> issue;
    runWithIssueCycles(f, tb.buf(), issue);
    EXPECT_GE(issue[1], issue[0] + 6); // waits for the miss
    EXPECT_EQ(issue[2], issue[1] + 1);
}

TEST(Pipeline, ClusteredInterClusterBypassCounted)
{
    // Five chains fill cluster 0's four FIFOs and spill into cluster
    // 1; a consumer of chains 1 and 5 must receive one operand over
    // the inter-cluster bypass.
    TraceBuilder tb;
    for (int c = 0; c < 5; ++c)
        for (int i = 0; i < 3; ++i)
            tb.alu(1 + c, i == 0 ? -1 : 1 + c);
    tb.alu(10, 1, 5);
    SimConfig cfg = fifoCfg();
    cfg.num_clusters = 2;
    cfg.fifos_per_cluster = 4;
    cfg.fus_per_cluster = 4;
    SimStats s = simulate(cfg, tb.buf());
    EXPECT_GE(s.intercluster_bypasses(), 1u);
    EXPECT_GT(s.issued_per_cluster(0), 0u);
    EXPECT_GT(s.issued_per_cluster(1), 0u);
}

TEST(Pipeline, InterClusterLatencySlowsCrossClusterConsumer)
{
    // Producer in cluster 1 (forced by filling cluster 0), consumer
    // steered to cluster 0: issue gap is 1 + inter_cluster_extra.
    auto run_with = [](int extra) {
        TraceBuilder tb;
        for (int c = 0; c < 5; ++c)
            for (int i = 0; i < 3; ++i)
                tb.alu(1 + c, i == 0 ? -1 : 1 + c);
        tb.alu(10, 1, 5);
        SimConfig cfg;
        cfg.name = "xclust";
        cfg.style = IssueBufferStyle::Fifos;
        cfg.steering = SteeringPolicy::DependenceFifo;
        cfg.num_clusters = 2;
        cfg.fifos_per_cluster = 4;
        cfg.fus_per_cluster = 4;
        cfg.inter_cluster_extra = extra;
        std::map<uint64_t, uint64_t> issue;
        runWithIssueCycles(cfg, tb.buf(), issue);
        return issue.at(15); // consumer's issue cycle
    };
    EXPECT_EQ(run_with(3), run_with(1) + 2);
}

TEST(Pipeline, DeterministicAcrossRuns)
{
    trace::SyntheticParams sp;
    trace::TraceBuffer buf = trace::generateSynthetic(sp, 20000);
    SimStats a = simulate(windowCfg(), buf);
    SimStats b = simulate(windowCfg(), buf);
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.committed(), b.committed());
    EXPECT_EQ(a.mispredicts(), b.mispredicts());
    EXPECT_EQ(a.dcache_misses(), b.dcache_misses());
}

TEST(Pipeline, HaltStopsFetchEarly)
{
    TraceBuilder tb;
    for (int i = 0; i < 8; ++i)
        tb.alu(1 + i);
    TraceOp &h = tb.add();
    h.op = isa::Opcode::HALT;
    h.cls = isa::OpClass::Halt;
    for (int i = 0; i < 8; ++i)
        tb.alu(1 + i); // beyond the halt: never fetched
    SimStats s = simulate(windowCfg(), tb.buf());
    EXPECT_EQ(s.committed(), 9u);
}

TEST(Pipeline, MaxInstructionCapRespected)
{
    TraceBuilder tb;
    for (int i = 0; i < 100; ++i)
        tb.alu(1 + i % 8);
    RunLimits limits;
    limits.max_instructions = 40;
    SimStats s = simulate(windowCfg(), tb.buf(), limits);
    EXPECT_EQ(s.committed(), 40u);
}

TEST(Pipeline, StatsAccountingConsistent)
{
    trace::SyntheticParams sp;
    trace::TraceBuffer buf = trace::generateSynthetic(sp, 10000);
    SimStats s = simulate(windowCfg(), buf);
    EXPECT_EQ(s.committed(), s.issued());
    EXPECT_EQ(s.committed(), s.dispatched());
    EXPECT_EQ(s.committed(), s.fetched());
    // Read through a const view: unconfigured clusters have no
    // registry row and must read as zero.
    const SimStats &cs = s;
    uint64_t per_cluster = 0;
    for (int c = 0; c < kMaxClusters; ++c)
        per_cluster += cs.issued_per_cluster(c);
    EXPECT_EQ(per_cluster, cs.issued());
}

/** An instruction lives in one ROB slot from fetch to commit, with
 *  the fetch queue in the slots past the ROB tail. Whatever the ring
 *  holds around it, dispatch sees each instruction in program order,
 *  carrying its own trace record, no earlier than its front-end exit,
 *  and with no issue state left over from the slot's previous
 *  occupant. */
TEST(Pipeline, DispatchSeesFetchedRecordUnissued)
{
    trace::SyntheticParams sp;
    sp.seed = 31;
    trace::TraceBuffer buf = trace::generateSynthetic(sp, 5000);
    for (SimConfig base :
         {core::baseline8Way(), core::dependence8x8(),
          core::clusteredWindows2x4(), core::clusteredExecDriven2x4()}) {
        for (int fetch_queue : {base.fetch_width, 200}) {
            for (int inflight : {8, 130}) {
                SimConfig c = base;
                c.fetch_queue = fetch_queue;
                c.max_inflight = inflight;
                Pipeline p(c, buf);
                uint64_t next = 0;
                bool ok = true;
                p.setDispatchObserver([&](const DynInst &d) {
                    ok = ok && d.seq == next++ &&
                        std::memcmp(&d.op, &buf[d.seq],
                                    sizeof(TraceOp)) == 0 &&
                        d.dispatch_cycle >= d.frontend_exit &&
                        !d.issued && d.issue_cycle == kNeverCycle &&
                        d.complete_cycle == kNeverCycle;
                });
                SimStats s = p.run();
                EXPECT_TRUE(ok) << c.name << " fetch_queue "
                                << fetch_queue << " max_inflight "
                                << inflight << ": first bad seq "
                                << next - 1;
                EXPECT_EQ(next, s.committed()) << c.name;
            }
        }
    }
}

TEST(PipelineDeathTest, RunIsSingleUse)
{
    TraceBuilder tb;
    tb.alu(1);
    Pipeline p(windowCfg(), tb.buf());
    p.run();
    EXPECT_DEATH(p.run(), "single-use");
}

TEST(PipelineDeathTest, InvalidConfigFatal)
{
    TraceBuffer buf;
    SimConfig c;
    c.num_clusters = 2; // clustered without steering
    EXPECT_EXIT(Pipeline(c, buf), ::testing::ExitedWithCode(1),
                "steering");
}
