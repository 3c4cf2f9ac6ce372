/**
 * @file
 * Unit tests for the FIFO set: allocation, push/pop/remove,
 * recycling, the two-free-list cluster policy (Section 5.5), and
 * tail queries used by the steering heuristic.
 */

#include <gtest/gtest.h>

#include "uarch/fifos.hpp"

using namespace cesp::uarch;

TEST(FifoSet, ShapeAndClusters)
{
    FifoSet f(2, 4, 8);
    EXPECT_EQ(f.numFifos(), 8);
    EXPECT_EQ(f.depth(), 8);
    EXPECT_EQ(f.clusterOf(0), 0);
    EXPECT_EQ(f.clusterOf(3), 0);
    EXPECT_EQ(f.clusterOf(4), 1);
    EXPECT_EQ(f.clusterOf(7), 1);
    EXPECT_EQ(f.freeCount(0), 4);
    EXPECT_EQ(f.freeCount(1), 4);
}

TEST(FifoSet, AllocatePushPop)
{
    FifoSet f(1, 8, 8);
    int id = f.allocate();
    ASSERT_GE(id, 0);
    EXPECT_TRUE(f.allocated(id));
    EXPECT_TRUE(f.empty(id));
    f.push(id, 10);
    f.push(id, 11);
    EXPECT_EQ(f.head(id), 10u);
    EXPECT_TRUE(f.isTail(id, 11));
    EXPECT_FALSE(f.isTail(id, 10));
    f.popHead(id);
    EXPECT_EQ(f.head(id), 11u);
    f.popHead(id);
    // Recycled on empty.
    EXPECT_FALSE(f.allocated(id));
    EXPECT_EQ(f.freeCount(0), 8);
}

TEST(FifoSet, FullDetection)
{
    FifoSet f(1, 2, 3);
    int id = f.allocate();
    f.push(id, 1);
    f.push(id, 2);
    EXPECT_FALSE(f.full(id));
    f.push(id, 3);
    EXPECT_TRUE(f.full(id));
}

TEST(FifoSet, RemoveFromMiddleConceptualMode)
{
    FifoSet f(1, 4, 4);
    int id = f.allocate();
    f.push(id, 5);
    f.push(id, 6);
    f.push(id, 7);
    f.remove(id, 6);
    EXPECT_EQ(f.head(id), 5u);
    EXPECT_TRUE(f.isTail(id, 7));
    f.remove(id, 5);
    f.remove(id, 7);
    EXPECT_FALSE(f.allocated(id)); // recycled
}

TEST(FifoSet, AllocationExhaustion)
{
    FifoSet f(1, 2, 4);
    int a = f.allocate();
    int b = f.allocate();
    EXPECT_GE(a, 0);
    EXPECT_GE(b, 0);
    EXPECT_NE(a, b);
    f.push(a, 1);
    f.push(b, 2);
    EXPECT_EQ(f.allocate(), -1);
    // Draining one FIFO makes it available again.
    f.popHead(a);
    EXPECT_EQ(f.allocate(), a);
}

TEST(FifoSet, TwoFreeListPolicyStaysOnCurrentCluster)
{
    // Section 5.5: consecutive allocations come from the current
    // cluster's pool until it empties, then switch.
    FifoSet f(2, 2, 4);
    int f1 = f.allocate();
    f.push(f1, 1);
    int f2 = f.allocate();
    f.push(f2, 2);
    EXPECT_EQ(f.clusterOf(f1), 0);
    EXPECT_EQ(f.clusterOf(f2), 0);
    int f3 = f.allocate();
    f.push(f3, 3);
    EXPECT_EQ(f.clusterOf(f3), 1); // cluster 0 exhausted
    int f4 = f.allocate();
    f.push(f4, 4);
    EXPECT_EQ(f.clusterOf(f4), 1);
    EXPECT_EQ(f.allocate(), -1);
}

TEST(FifoSet, CurrentClusterFollowsLastAllocation)
{
    FifoSet f(2, 2, 4);
    int f1 = f.allocate();
    f.push(f1, 1);
    int f2 = f.allocate();
    f.push(f2, 2); // cluster 0 now empty
    int f3 = f.allocate();
    f.push(f3, 3); // switched to cluster 1
    // Free a cluster-0 FIFO; current should remain cluster 1.
    f.popHead(f1);
    int f5 = f.allocate();
    EXPECT_EQ(f.clusterOf(f5), 1);
}

TEST(FifoSet, AllocateRespectsClusterFilter)
{
    FifoSet f(2, 2, 4);
    int id = f.allocate([](int c) { return c == 1; });
    ASSERT_GE(id, 0);
    EXPECT_EQ(f.clusterOf(id), 1);
    // No cluster acceptable -> -1.
    EXPECT_EQ(f.allocate([](int) { return false; }), -1);
}

TEST(FifoSet, IsTailFalseForAbsentSeq)
{
    FifoSet f(1, 1, 4);
    int id = f.allocate();
    f.push(id, 1);
    EXPECT_FALSE(f.isTail(id, 99));
}

TEST(FifoSet, ClearResetsEverything)
{
    FifoSet f(2, 2, 4);
    int id = f.allocate();
    f.push(id, 1);
    f.clear();
    EXPECT_EQ(f.freeCount(0), 2);
    EXPECT_EQ(f.freeCount(1), 2);
    EXPECT_FALSE(f.allocated(id));
}

TEST(FifoSetDeathTest, MisusePanics)
{
    FifoSet f(1, 2, 2);
    EXPECT_DEATH(f.head(0), "empty");
    EXPECT_DEATH(f.push(0, 1), "unallocated");
    int id = f.allocate();
    f.push(id, 5);
    EXPECT_DEATH(f.push(id, 4), "out-of-order");
    f.push(id, 6);
    EXPECT_DEATH(f.push(id, 7), "full");
    EXPECT_DEATH(f.remove(id, 99), "absent");
    EXPECT_DEATH(f.popHead(id, 6), "not the head");
    EXPECT_DEATH(f.clusterOf(9), "bad fifo");
}

TEST(FifoSet, RingWrapsAcrossManyPushPopRounds)
{
    // Keep a 3-deep FIFO partly full while pushing and popping well
    // past its depth, so the ring head wraps several times.
    FifoSet f(1, 2, 3);
    int id = f.allocate();
    uint64_t next_push = 0, next_pop = 0;
    f.push(id, next_push++);
    for (int round = 0; round < 20; ++round) {
        f.push(id, next_push++);
        if (round % 3 == 0 && !f.full(id))
            f.push(id, next_push++);
        EXPECT_EQ(f.head(id), next_pop);
        EXPECT_TRUE(f.isTail(id, next_push - 1));
        f.popHead(id);
        ++next_pop;
        ASSERT_TRUE(f.allocated(id));
    }
    EXPECT_EQ(f.totalEntries(), next_push - next_pop);
    while (!f.empty(id)) {
        EXPECT_EQ(f.head(id), next_pop);
        f.popHead(id, next_pop++);
    }
    EXPECT_EQ(next_pop, next_push);
    EXPECT_FALSE(f.allocated(id)); // recycled on empty
    EXPECT_EQ(f.totalEntries(), 0u);
}

TEST(FifoSet, MiddleRemoveAfterWrap)
{
    FifoSet f(1, 1, 4);
    int id = f.allocate();
    // Advance the ring head to slot 3 so later entries wrap.
    for (uint64_t s = 0; s < 3; ++s)
        f.push(id, s);
    for (int i = 0; i < 3; ++i) {
        f.push(id, 3 + static_cast<uint64_t>(i)); // keeps it allocated
        f.popHead(id);
    }
    // Entries 3, 4, 5 occupy slots 3, 0, 1.
    f.push(id, 6); // slot 2: full, wrapped
    EXPECT_TRUE(f.full(id));
    f.remove(id, 4); // middle, across the wrap
    EXPECT_EQ(f.head(id), 3u);
    EXPECT_TRUE(f.isTail(id, 6));
    EXPECT_EQ(f.totalEntries(), 3u);
    f.remove(id, 6); // the tail
    EXPECT_TRUE(f.isTail(id, 5));
    f.remove(id, 3); // the head
    EXPECT_EQ(f.head(id), 5u);
    EXPECT_TRUE(f.allocated(id));
    f.remove(id, 5); // last entry: recycled
    EXPECT_FALSE(f.allocated(id));
    EXPECT_EQ(f.freeCount(0), 1);
    EXPECT_EQ(f.totalEntries(), 0u);
    // The recycled FIFO comes back empty.
    EXPECT_EQ(f.allocate(), id);
    EXPECT_TRUE(f.empty(id));
    f.push(id, 10);
    EXPECT_EQ(f.head(id), 10u);
}

TEST(FifoSet, RecycledFifosReturnInFreeListOrder)
{
    FifoSet f(1, 3, 2);
    int a = f.allocate();
    int b = f.allocate();
    int c = f.allocate();
    f.push(a, 1);
    f.push(b, 2);
    f.push(c, 3);
    f.remove(b, 2); // recycled first
    f.popHead(a);   // then a
    EXPECT_EQ(f.allocate(), b);
    EXPECT_EQ(f.allocate(), a);
    EXPECT_EQ(f.allocate(), -1);
}
