/**
 * @file
 * Tests for the dispatch-steering policies: the Section 5.1
 * dependence heuristic case by case (driven directly against the
 * Steering engine), the random policy, and a pipeline-level
 * reproduction of the paper's Figure 12 steering example.
 */

#include <gtest/gtest.h>

#include <map>

#include "func/emulator.hpp"
#include "uarch/pipeline.hpp"
#include "uarch/steering.hpp"

using namespace cesp;
using namespace cesp::uarch;

namespace {

/** Drives the dependence-FIFO steering like the dispatch stage. */
class DependenceSteerFixture : public ::testing::Test
{
  protected:
    DependenceSteerFixture()
    {
        cfg.style = IssueBufferStyle::Fifos;
        cfg.steering = SteeringPolicy::DependenceFifo;
        cfg.fifos_per_cluster = 4;
        cfg.fifo_depth = 3;
        fifos = std::make_unique<FifoSet>(1, cfg.fifos_per_cluster,
                                          cfg.fifo_depth);
        rename = std::make_unique<RenameState>(cfg);
        steer = std::make_unique<Steering>(cfg, fifos.get(), nullptr);
    }

    /**
     * Dispatch an instruction writing @p dst reading @p s1/@p s2
     * (architectural registers, 0 = none). Returns the FIFO id, or
     * -1 on a steering stall.
     */
    int
    dispatch(int dst, int s1 = 0, int s2 = 0)
    {
        DynInst d;
        d.seq = next_seq++;
        d.src1_preg = s1 > 0 ? rename->mapOf(s1) : -1;
        d.src2_preg = s2 > 0 ? rename->mapOf(s2) : -1;
        SteerDecision dec = steer->decide(
            d, *rename, now,
            [this](uint64_t s) -> const DynInst & {
                return rob.at(s);
            });
        if (!dec.ok)
            return -1;
        d.fifo = dec.fifo;
        d.cluster = dec.cluster;
        if (dst > 0)
            d.dst_preg = rename->rename(dst, d.seq).preg;
        fifos->push(d.fifo, d.seq);
        rob[d.seq] = d;
        return d.fifo;
    }

    /** Issue the head of a FIFO and mark its result computed. */
    void
    issueHead(int fifo)
    {
        uint64_t seq = fifos->head(fifo);
        fifos->popHead(fifo);
        DynInst &d = rob.at(seq);
        if (d.dst_preg >= 0) {
            PhysReg &pr = rename->preg(d.dst_preg);
            pr.computed_cycle = now; // computed immediately
            for (int c = 0; c < kMaxClusters; ++c)
                pr.ready_cycle[c] = now;
        }
    }

    SimConfig cfg;
    std::unique_ptr<FifoSet> fifos;
    std::unique_ptr<RenameState> rename;
    std::unique_ptr<Steering> steer;
    std::map<uint64_t, DynInst> rob;
    uint64_t next_seq = 0;
    uint64_t now = 5; // fresh architectural values are "computed"
};

} // namespace

TEST_F(DependenceSteerFixture, ReadyOperandsGetNewFifo)
{
    // Section 5.1 case 1: all operands in the register file.
    int f1 = dispatch(1, 0, 0);
    int f2 = dispatch(2, 3, 4); // sources are ready arch registers
    EXPECT_GE(f1, 0);
    EXPECT_GE(f2, 0);
    EXPECT_NE(f1, f2);
}

TEST_F(DependenceSteerFixture, SingleOutstandingFollowsProducer)
{
    // Section 5.1 case 2: one outstanding operand whose producer is
    // the FIFO tail.
    int fp = dispatch(1);        // producer of r1
    int fc = dispatch(2, 1, 0);  // consumer of r1
    EXPECT_EQ(fc, fp);
}

TEST_F(DependenceSteerFixture, InstructionBehindProducerForcesNewFifo)
{
    int fp = dispatch(1);       // producer
    int fc1 = dispatch(2, 1);   // behind producer
    EXPECT_EQ(fc1, fp);
    int fc2 = dispatch(3, 1);   // producer no longer the tail
    EXPECT_NE(fc2, fp);
    EXPECT_GE(fc2, 0);
}

TEST_F(DependenceSteerFixture, FullFifoForcesNewFifo)
{
    int fp = dispatch(1);
    dispatch(2, 1);
    dispatch(3, 2);             // depth 3 reached
    ASSERT_TRUE(fifos->full(fp));
    int fc = dispatch(4, 3);    // producer r3 is the tail but full
    EXPECT_NE(fc, fp);
    EXPECT_GE(fc, 0);
}

TEST_F(DependenceSteerFixture, IssuedProducerNoLongerSteersConsumer)
{
    int fp = dispatch(1);
    issueHead(fp); // producer issued; value computed at `now`
    ++now;         // value is now in the register file
    int fc = dispatch(2, 1);
    // Operand computed -> case 1 -> new FIFO (fp itself was recycled
    // and may be reused, but via the free list, not via SRC_FIFO).
    EXPECT_GE(fc, 0);
}

TEST_F(DependenceSteerFixture, InFlightIssuedProducerForcesNewFifo)
{
    int fp = dispatch(1);
    uint64_t seq = fifos->head(fp);
    fifos->popHead(fp);
    DynInst &d = rob.at(seq);
    // Issued but result not computed yet (multi-cycle load).
    PhysReg &pr = rename->preg(d.dst_preg);
    pr.computed_cycle = now + 10;
    int fc = dispatch(2, 1);
    EXPECT_GE(fc, 0); // steered to a fresh FIFO, no crash
}

TEST_F(DependenceSteerFixture, TwoOutstandingPrefersLeft)
{
    int fl = dispatch(1); // left producer
    int fr = dispatch(2); // right producer
    ASSERT_NE(fl, fr);
    int fc = dispatch(3, 1, 2);
    EXPECT_EQ(fc, fl);
}

TEST_F(DependenceSteerFixture, TwoOutstandingFallsBackToRight)
{
    dispatch(1);           // left producer
    dispatch(9, 1); // occupies the slot behind the left producer
    int fr = dispatch(2);
    int fc = dispatch(3, 1, 2); // left unsuitable -> right
    EXPECT_EQ(fc, fr);
}

TEST_F(DependenceSteerFixture, BothUnsuitableGetsNewFifo)
{
    int fl = dispatch(1);
    dispatch(9, 1);
    int fr = dispatch(2);
    dispatch(10, 2);
    int fc = dispatch(3, 1, 2);
    EXPECT_NE(fc, fl);
    EXPECT_NE(fc, fr);
    EXPECT_GE(fc, 0);
}

TEST_F(DependenceSteerFixture, NoFreeFifoStallsDispatch)
{
    dispatch(1);
    dispatch(2);
    dispatch(3);
    dispatch(4); // all four FIFOs allocated
    EXPECT_EQ(dispatch(5), -1);
    // Draining one FIFO unblocks dispatch.
    issueHead(0);
    EXPECT_GE(dispatch(5), 0);
}

TEST_F(DependenceSteerFixture, DecisionKindsReported)
{
    // Case 1: all operands ready -> NewFifo (and make it a producer
    // of r1 for the follow-on cases).
    DynInst p;
    p.seq = next_seq++;
    p.src1_preg = rename->mapOf(3);
    SteerDecision k1 = steer->decide(
        p, *rename, now,
        [this](uint64_t s) -> const DynInst & { return rob.at(s); });
    ASSERT_TRUE(k1.ok);
    EXPECT_EQ(k1.kind, SteerKind::NewFifo);
    p.fifo = k1.fifo;
    p.dst_preg = rename->rename(1, p.seq).preg;
    fifos->push(p.fifo, p.seq);
    rob[p.seq] = p;

    // Case 2: one outstanding operand at a FIFO tail -> ChainLeft.
    DynInst c;
    c.seq = next_seq++;
    c.src1_preg = rename->mapOf(1);
    SteerDecision k2 = steer->decide(
        c, *rename, now,
        [this](uint64_t s) -> const DynInst & { return rob.at(s); });
    ASSERT_TRUE(k2.ok);
    EXPECT_EQ(k2.kind, SteerKind::ChainLeft);
    c.fifo = k2.fifo;
    fifos->push(c.fifo, c.seq);
    rob[c.seq] = c;

    // Case 3: left producer buried, right producer at its tail ->
    // ChainRight.
    int fr = dispatch(2); // fresh right-operand producer
    ASSERT_GE(fr, 0);
    DynInst e;
    e.seq = next_seq++;
    e.src1_preg = rename->mapOf(1); // r1 producer no longer a tail
    e.src2_preg = rename->mapOf(2);
    SteerDecision k3 = steer->decide(
        e, *rename, now,
        [this](uint64_t s) -> const DynInst & { return rob.at(s); });
    ASSERT_TRUE(k3.ok);
    EXPECT_EQ(k3.kind, SteerKind::ChainRight);
    EXPECT_EQ(k3.fifo, fr);
}

TEST(SteeringStats, PipelineCountsCases)
{
    // Serial chain: nearly every instruction chains behind its
    // producer (left operand).
    trace::TraceBuffer chain;
    uint32_t pc = 0x1000;
    for (int i = 0; i < 200; ++i) {
        trace::TraceOp t;
        t.pc = pc;
        pc += 4;
        t.op = isa::Opcode::ADD;
        t.cls = isa::OpClass::IntAlu;
        t.dst = 1;
        t.src1 = static_cast<int8_t>(i == 0 ? -1 : 1);
        chain.append(t);
    }
    SimConfig cfg;
    cfg.name = "sc";
    cfg.style = IssueBufferStyle::Fifos;
    cfg.steering = SteeringPolicy::DependenceFifo;
    SimStats s = simulate(cfg, chain);
    EXPECT_GT(s.steer_chain_left(), 150u);
    EXPECT_EQ(s.steer_chain_left() + s.steer_chain_right() +
                  s.steer_new_fifo(),
              s.dispatched());

    // Independent ops: everything takes a new FIFO.
    trace::TraceBuffer indep;
    pc = 0x1000;
    for (int i = 0; i < 200; ++i) {
        trace::TraceOp t;
        t.pc = pc;
        pc += 4;
        t.op = isa::Opcode::ADD;
        t.cls = isa::OpClass::IntAlu;
        t.dst = static_cast<int8_t>(1 + i % 24);
        indep.append(t);
    }
    SimStats s2 = simulate(cfg, indep);
    EXPECT_EQ(s2.steer_chain_left(), 0u);
    EXPECT_EQ(s2.steer_new_fifo(), 200u);
}

TEST(RandomSteering, DistributesAndFallsBack)
{
    SimConfig cfg;
    cfg.style = IssueBufferStyle::PerClusterWindow;
    cfg.steering = SteeringPolicy::Random;
    cfg.num_clusters = 2;
    cfg.window_size = 4;
    cfg.fus_per_cluster = 4;

    std::vector<IssueWindow> windows;
    windows.emplace_back(cfg.window_size);
    windows.emplace_back(cfg.window_size);
    Steering steer(cfg, nullptr, &windows);

    RenameState rename(cfg);
    DynInst d;
    auto rob = [](uint64_t) -> const DynInst & {
        static DynInst dummy;
        return dummy;
    };

    int count[2] = {0, 0};
    for (int i = 0; i < 200; ++i) {
        SteerDecision dec = steer.decide(d, rename, 0, rob);
        ASSERT_TRUE(dec.ok);
        ASSERT_GE(dec.cluster, 0);
        ASSERT_LT(dec.cluster, 2);
        ++count[dec.cluster];
    }
    // Roughly balanced.
    EXPECT_GT(count[0], 50);
    EXPECT_GT(count[1], 50);

    // Cluster-0 window full: every decision lands on cluster 1.
    for (int i = 0; i < 4; ++i)
        windows[0].insert(static_cast<uint64_t>(i));
    for (int i = 0; i < 20; ++i) {
        SteerDecision dec = steer.decide(d, rename, 0, rob);
        ASSERT_TRUE(dec.ok);
        EXPECT_EQ(dec.cluster, 1);
    }
    // Both full: stall.
    for (int i = 0; i < 4; ++i)
        windows[1].insert(static_cast<uint64_t>(100 + i));
    SteerDecision dec = steer.decide(d, rename, 0, rob);
    EXPECT_FALSE(dec.ok);
}

// ---- Figure 12: the paper's steering example through the pipeline ---------

TEST(Figure12, DependenceChainsShareFifos)
{
    // The code segment of Figure 12 (register roles preserved):
    // chains {0,2}, {4,5,7,8,9}, {6,12,13}, {10,11} should each end
    // up in a single FIFO.
    static const char *kFigure12 = R"ASM(
        .data
g:      .space 64
        .text
main:   add  s2, zero, a2       # 0: addu $18,$0,$2
        addi a2, zero, -1       # 1: addiu $2,$0,-1
        beq  s2, a2, skip       # 2: beq $18,$2,L2
skip:   lw   a0, 0(gp)          # 3: lw $4,-32768($28)
        sllv a2, s2, s4         # 4: sllv $2,$18,$20
        xor  s0, a2, s3         # 5: xor $16,$2,$19
        lw   v1, 4(gp)          # 6: lw $3,-32676($28)
        slli a2, s0, 2          # 7: sll $2,$16,0x2
        add  a2, a2, s7         # 8: addu $2,$2,$23
        lw   a2, 0(a2)          # 9: lw $2,0($2)
        sllv a0, s2, a0         # 10: sllv $4,$18,$4
        add  s1, a0, s3         # 11: addu $17,$4,$19
        addi v1, v1, 1          # 12: addiu $3,$3,1
        sw   v1, 4(gp)          # 13: sw $3,-32676($28)
        beq  a2, s1, out        # 14: beq $2,$17,L3
out:    halt
)ASM";

    trace::TraceBuffer buf;
    func::runProgram(kFigure12, 1000, &buf);
    // gp must be valid for the loads; point it at the data segment.
    // (The emulator starts gp at 0, which reads zeros - fine.)

    SimConfig cfg;
    cfg.style = IssueBufferStyle::Fifos;
    cfg.steering = SteeringPolicy::DependenceFifo;
    cfg.fifos_per_cluster = 4;
    cfg.fifo_depth = 8;
    cfg.issue_width = 4;
    cfg.fus_per_cluster = 4;
    cfg.name = "fig12";

    Pipeline pipe(cfg, buf);
    std::map<uint64_t, int> fifo_of;
    pipe.setDispatchObserver([&](const DynInst &d) {
        fifo_of[d.seq] = d.fifo;
    });
    pipe.run();

    // Dynamic seq: the assembled program is straight-line, so seq n
    // is source line n (branches fall through / are not taken...
    // beq s2,a2 with s2=a2? s2 = a2(initial 0) = 0, then a2 = -1, so
    // not taken; beq a2,s1 outcome irrelevant, both paths reach out).
    ASSERT_GE(fifo_of.size(), 15u);

    EXPECT_EQ(fifo_of[2], fifo_of[0]);   // branch behind its producer
    EXPECT_EQ(fifo_of[5], fifo_of[4]);   // xor behind sllv
    EXPECT_NE(fifo_of[4], fifo_of[0]);   // 0 had 2 behind it
    EXPECT_EQ(fifo_of[7], fifo_of[4]);   // sll chain continues
    EXPECT_EQ(fifo_of[8], fifo_of[4]);
    EXPECT_EQ(fifo_of[9], fifo_of[4]);
    EXPECT_EQ(fifo_of[12], fifo_of[6]);  // addiu behind its load
    EXPECT_EQ(fifo_of[13], fifo_of[12]); // store behind addiu
    EXPECT_EQ(fifo_of[11], fifo_of[10]); // addu behind sllv
}
