/**
 * @file
 * Tests for the optional L2 level, a differential test of the cache
 * model against a reference implementation, and the machine-vs-
 * dataflow-bound invariant.
 */

#include <gtest/gtest.h>

#include <list>
#include <map>

#include "core/machine.hpp"
#include "core/presets.hpp"
#include "core/sweep.hpp"
#include "common/rng.hpp"
#include "mem/cache.hpp"
#include "trace/analysis.hpp"
#include "uarch/pipeline.hpp"
#include "workloads/workloads.hpp"

using namespace cesp;
using namespace cesp::uarch;

// ---- L2 behaviour -----------------------------------------------------------

namespace {

/** Dependent loads striding through `lines` distinct cache lines. */
trace::TraceBuffer
strideLoads(int lines, uint32_t stride)
{
    trace::TraceBuffer buf;
    uint32_t pc = 0x1000;
    for (int i = 0; i < lines; ++i) {
        trace::TraceOp t;
        t.pc = pc;
        pc += 4;
        t.op = isa::Opcode::LW;
        t.cls = isa::OpClass::Load;
        t.dst = 1;
        t.src1 = static_cast<int8_t>(i == 0 ? -1 : 1);
        t.mem_addr = 0x100000 + static_cast<uint32_t>(i) * stride;
        t.mem_size = 4;
        buf.append(t);
    }
    return buf;
}

} // namespace

TEST(L2, ColdMissesPayMemoryLatency)
{
    trace::TraceBuffer buf = strideLoads(64, 4096);
    SimConfig flat;
    flat.name = "flat";
    SimConfig with_l2;
    with_l2.name = "l2";
    with_l2.l2.enabled = true;
    with_l2.l2.memory_latency = 24;

    SimStats f = simulate(flat, buf);
    SimStats l = simulate(with_l2, buf);
    // Cold misses that also miss the L2 pay 24 instead of 6 cycles.
    EXPECT_GT(l.cycles(), f.cycles() * 3);
    EXPECT_EQ(l.l2_accesses(), 64u);
    EXPECT_EQ(l.l2_misses(), 64u);
}

TEST(L2, CapacityMissesCaughtByL2)
{
    // Working set beyond L1 (32KB) but within L2 (256KB): two passes.
    // The second pass misses L1 (thrashes) but hits L2.
    trace::TraceBuffer buf;
    uint32_t pc = 0x1000;
    for (int pass = 0; pass < 2; ++pass) {
        for (int i = 0; i < 2048; ++i) { // 64KB / 32B lines
            trace::TraceOp t;
            t.pc = pc;
            pc += 4;
            t.op = isa::Opcode::LW;
            t.cls = isa::OpClass::Load;
            t.dst = static_cast<int8_t>(1 + i % 24);
            t.mem_addr = 0x100000 + static_cast<uint32_t>(i) * 32;
            t.mem_size = 4;
            buf.append(t);
        }
    }
    SimConfig cfg;
    cfg.name = "l2cap";
    cfg.l2.enabled = true;
    cfg.l2.memory_latency = 24;
    SimStats s = simulate(cfg, buf);
    EXPECT_GT(s.l2_accesses(), 2048u); // both passes miss L1
    // Second-pass accesses hit in the L2.
    EXPECT_LT(s.l2_misses(), s.l2_accesses());
    EXPECT_NEAR(static_cast<double>(s.l2_misses()), 2048.0, 64.0);
}

TEST(L2, DisabledByDefault)
{
    trace::TraceBuffer buf = strideLoads(8, 4096);
    SimStats s = simulate(SimConfig{}, buf);
    EXPECT_EQ(s.l2_accesses(), 0u);
}

TEST(L2DeathTest, MemoryLatencyMustCoverL2Hit)
{
    trace::TraceBuffer buf;
    SimConfig c;
    c.l2.enabled = true;
    c.l2.memory_latency = 2; // below the 6-cycle L2 hit
    EXPECT_EXIT(Pipeline(c, buf), ::testing::ExitedWithCode(1),
                "latency");
}

// ---- differential cache test -------------------------------------------------

namespace {

/** Reference model: per-set LRU lists over line addresses. */
class RefCache
{
  public:
    RefCache(uint32_t size, int assoc, uint32_t line)
        : assoc_(assoc), line_(line),
          sets_(size / (line * static_cast<uint32_t>(assoc)))
    {
    }

    bool
    access(uint32_t addr)
    {
        uint32_t lineaddr = addr / line_;
        uint32_t set = lineaddr % sets_;
        auto &lru = sets_lru_[set];
        for (auto it = lru.begin(); it != lru.end(); ++it) {
            if (*it == lineaddr) {
                lru.erase(it);
                lru.push_front(lineaddr);
                return true;
            }
        }
        lru.push_front(lineaddr);
        if (lru.size() > static_cast<size_t>(assoc_))
            lru.pop_back();
        return false;
    }

  private:
    int assoc_;
    uint32_t line_;
    uint32_t sets_;
    std::map<uint32_t, std::list<uint32_t>> sets_lru_;
};

} // namespace

TEST(CacheDifferential, MatchesReferenceLruModel)
{
    uarch::CacheConfig cfg;
    cfg.size_bytes = 4096;
    cfg.associativity = 2;
    cfg.line_bytes = 32;
    mem::Cache dut(cfg);
    RefCache ref(4096, 2, 32);

    Rng rng(99);
    for (int i = 0; i < 20000; ++i) {
        // Mix of sequential and random accesses over 16KB.
        uint32_t addr = rng.chance(0.5)
            ? static_cast<uint32_t>(i % 4096) * 4
            : static_cast<uint32_t>(rng.below(16384)) & ~3u;
        bool ref_hit = ref.access(addr);
        bool dut_hit = dut.access(addr, rng.chance(0.3)).hit;
        ASSERT_EQ(dut_hit, ref_hit) << "access " << i << " @" << addr;
    }
}

// ---- machine <= idealized dataflow bound --------------------------------------

TEST(MachineBound, NeverExceedsFiniteWindowDataflowIpc)
{
    // The real pipeline adds front-end, branch, and memory penalties
    // on top of the idealized schedule with the same window and
    // width; it must never beat that bound.
    for (const char *wname : {"compress", "m88ksim", "vortex"}) {
        trace::TraceView view = core::cachedWorkloadTraceView(wname);
        trace::ScheduleLimits lim;
        lim.window = 64;
        lim.issue_width = 8;
        double bound = trace::dataflowSchedule(view, lim).ipc;
        double machine =
            core::runGrid({core::baseline8Way()}, {wname}).at(0, 0).ipc();
        EXPECT_LE(machine, bound + 1e-9) << wname;
    }
}
