/**
 * @file
 * Unit tests for the issue window and the store queue.
 */

#include <gtest/gtest.h>

#include "uarch/lsq.hpp"
#include "uarch/window.hpp"

using namespace cesp::uarch;

TEST(IssueWindow, InsertRemoveOrdering)
{
    // Age order lives in the ROB: an age-compacted window only counts
    // its occupants, and any of them may leave.
    IssueWindow w(4);
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.insert(10), -1);
    EXPECT_EQ(w.insert(11), -1);
    EXPECT_EQ(w.insert(15), -1);
    EXPECT_EQ(w.size(), 3);
    w.remove(11);
    EXPECT_EQ(w.size(), 2);
    w.remove(15);
    w.remove(10);
    EXPECT_TRUE(w.empty());
}

TEST(IssueWindow, FullAndCapacity)
{
    IssueWindow w(2);
    w.insert(1);
    EXPECT_FALSE(w.full());
    w.insert(2);
    EXPECT_TRUE(w.full());
    w.remove(1);
    EXPECT_FALSE(w.full());
    EXPECT_EQ(w.capacity(), 2);
}

TEST(IssueWindowSlot, FreedSlotsAreReusedOutOfAgeOrder)
{
    IssueWindow w(4, WindowOrder::SlotPriority);
    EXPECT_EQ(w.insert(10), 0);
    EXPECT_EQ(w.insert(11), 1);
    EXPECT_EQ(w.insert(12), 2);
    w.remove(11);
    EXPECT_EQ(w.insert(20), 1); // reuses slot 1: priority ahead of 12
    EXPECT_EQ(w.seqAt(0), 10u);
    EXPECT_EQ(w.seqAt(1), 20u);
    EXPECT_EQ(w.seqAt(2), 12u);
    EXPECT_EQ(w.seqAt(3), kNoSeq);
}

TEST(IssueWindowSlot, CapacityAndClear)
{
    IssueWindow w(2, WindowOrder::SlotPriority);
    w.insert(1);
    w.insert(2);
    EXPECT_TRUE(w.full());
    w.remove(1);
    EXPECT_FALSE(w.full());
    w.remove(2);
    EXPECT_TRUE(w.empty());
    EXPECT_EQ(w.seqAt(0), kNoSeq);
    EXPECT_EQ(w.seqAt(1), kNoSeq);
}

TEST(IssueWindowSlot, AgeOrderWhenNoHoles)
{
    IssueWindow w(4, WindowOrder::SlotPriority);
    w.insert(5);
    w.insert(6);
    w.insert(7);
    EXPECT_EQ(w.seqAt(0), 5u);
    EXPECT_EQ(w.seqAt(2), 7u);
}

TEST(IssueWindowSlotDeathTest, MisusePanics)
{
    IssueWindow w(2, WindowOrder::SlotPriority);
    w.insert(5);
    EXPECT_DEATH(w.remove(99), "absent");
    EXPECT_DEATH(w.seqAt(2), "bad slot");
    w.insert(6);
    EXPECT_DEATH(w.insert(7), "full");
}

TEST(IssueWindowDeathTest, MisusePanics)
{
    IssueWindow w(2);
    EXPECT_DEATH(w.remove(5), "empty");
    w.insert(5);
    w.insert(6);
    EXPECT_DEATH(w.insert(7), "full");
}

TEST(StoreQueue, OlderStoreGating)
{
    StoreQueue q;
    q.dispatch(5, 0x100);
    q.dispatch(9, 0x200);
    // A load younger than both is gated.
    EXPECT_TRUE(q.olderStoreUnissued(10));
    // A load older than both stores is not gated.
    EXPECT_FALSE(q.olderStoreUnissued(3));
    // A load between them is gated only by the older store.
    EXPECT_TRUE(q.olderStoreUnissued(7));
    q.markIssued(5);
    EXPECT_FALSE(q.olderStoreUnissued(7));
    EXPECT_TRUE(q.olderStoreUnissued(10));
    q.markIssued(9);
    EXPECT_FALSE(q.olderStoreUnissued(10));
}

TEST(StoreQueue, ForwardingFindsYoungestOlderMatch)
{
    StoreQueue q;
    q.dispatch(1, 0x100);
    q.dispatch(4, 0x100);
    q.dispatch(6, 0x300);
    q.markIssued(1);
    q.markIssued(4);
    q.markIssued(6);
    auto f = q.forwardFrom(10, 0x100);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(*f, 4u); // youngest older matching store
    // A load older than store 4 forwards from store 1.
    auto f2 = q.forwardFrom(3, 0x100);
    ASSERT_TRUE(f2.has_value());
    EXPECT_EQ(*f2, 1u);
    // No match for a different word.
    EXPECT_FALSE(q.forwardFrom(10, 0x200).has_value());
}

TEST(StoreQueue, ForwardingRequiresFullCoverage)
{
    // A store forwards only when it covers every byte of the load.
    StoreQueue q;
    q.dispatch(1, 0x100, 1); // byte store at 0x100
    q.markIssued(1);
    // A word load overlapping the byte store must NOT forward: three
    // of its four bytes would come from memory.
    EXPECT_FALSE(q.forwardFrom(5, 0x100, 4).has_value());
    // A byte load of the stored byte forwards.
    EXPECT_TRUE(q.forwardFrom(5, 0x100, 1).has_value());
    // A byte load of a neighboring byte does not.
    EXPECT_FALSE(q.forwardFrom(5, 0x101, 1).has_value());
}

TEST(StoreQueue, WiderStoreForwardsToNarrowerLoad)
{
    StoreQueue q;
    q.dispatch(1, 0x100, 4); // word store [0x100, 0x104)
    q.markIssued(1);
    // Any sub-range of the store forwards...
    EXPECT_TRUE(q.forwardFrom(5, 0x100, 4).has_value());
    EXPECT_TRUE(q.forwardFrom(5, 0x102, 2).has_value());
    EXPECT_TRUE(q.forwardFrom(5, 0x103, 1).has_value());
    // ...but a load straddling the store's end does not.
    EXPECT_FALSE(q.forwardFrom(5, 0x102, 4).has_value());
    // Nor does an adjacent word.
    EXPECT_FALSE(q.forwardFrom(5, 0x104, 4).has_value());
}

TEST(StoreQueue, PartialOverlapDoesNotForward)
{
    StoreQueue q;
    q.dispatch(1, 0x102, 2); // halfword store [0x102, 0x104)
    q.markIssued(1);
    // Word loads at 0x100 and 0x104 each overlap one end of the
    // store without being covered by it.
    EXPECT_FALSE(q.forwardFrom(5, 0x100, 4).has_value());
    EXPECT_FALSE(q.forwardFrom(5, 0x104, 4).has_value());
    // The exactly-covered halfword forwards.
    EXPECT_TRUE(q.forwardFrom(5, 0x102, 2).has_value());
}

TEST(StoreQueue, YoungestCoveringStoreWins)
{
    // With mixed widths the youngest *covering* store forwards, not
    // merely the youngest overlapping one.
    StoreQueue q;
    q.dispatch(1, 0x100, 4); // word store
    q.dispatch(4, 0x100, 1); // younger byte store over its low byte
    q.markIssued(1);
    q.markIssued(4);
    // A word load is only covered by store 1; store 4 overlaps but
    // holds just one of the four bytes. Forwarding from store 1
    // would be wrong (its low byte is stale), so the queue refuses.
    EXPECT_FALSE(q.forwardFrom(10, 0x100, 4).has_value());
    // A byte load of 0x100 is covered by both; the youngest wins.
    auto f = q.forwardFrom(10, 0x100, 1);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(*f, 4u);
}

TEST(StoreQueue, UnissuedStoresDoNotForward)
{
    StoreQueue q;
    q.dispatch(1, 0x100);
    EXPECT_FALSE(q.forwardFrom(5, 0x100).has_value());
}

TEST(StoreQueue, CommitRemovesInOrder)
{
    StoreQueue q;
    q.dispatch(1, 0x100);
    q.dispatch(2, 0x200);
    q.markIssued(1);
    q.markIssued(2);
    EXPECT_EQ(q.size(), 2u);
    q.commit(1);
    q.commit(2);
    EXPECT_EQ(q.size(), 0u);
    EXPECT_FALSE(q.forwardFrom(10, 0x100).has_value());
}

TEST(StoreQueue, ClearResets)
{
    StoreQueue q;
    q.dispatch(1, 0x100);
    q.clear();
    EXPECT_EQ(q.size(), 0u);
    EXPECT_FALSE(q.olderStoreUnissued(100));
}

TEST(StoreQueueDeathTest, ProtocolViolationsPanic)
{
    StoreQueue q;
    q.dispatch(5, 0x100);
    EXPECT_DEATH(q.dispatch(4, 0x200), "out-of-order");
    EXPECT_DEATH(q.markIssued(99), "unknown");
    EXPECT_DEATH(q.commit(5), "unissued");
}

TEST(StoreQueue, YoungerStoreIssuingFirstKeepsOlderGate)
{
    StoreQueue q;
    q.dispatch(2, 0x100);
    q.dispatch(5, 0x200);
    q.dispatch(8, 0x300);
    q.markIssued(8); // youngest first
    // The oldest unissued store (2) still gates every younger load.
    EXPECT_TRUE(q.olderStoreUnissued(3));
    EXPECT_TRUE(q.olderStoreUnissued(9));
    EXPECT_FALSE(q.olderStoreUnissued(2));
    q.markIssued(5);
    EXPECT_TRUE(q.olderStoreUnissued(9));
    // Issuing the oldest skips past the already-issued 5 and 8.
    q.markIssued(2);
    EXPECT_FALSE(q.olderStoreUnissued(9));
    EXPECT_FALSE(q.olderStoreUnissued(100));
}

TEST(StoreQueue, OldestIssuesWhileYoungerStillWaits)
{
    StoreQueue q;
    q.dispatch(1, 0x100);
    q.dispatch(4, 0x200);
    q.dispatch(7, 0x300);
    q.markIssued(1);
    // Store 4 is now the oldest unissued: loads between 1 and 4 run,
    // loads past 4 wait.
    EXPECT_FALSE(q.olderStoreUnissued(3));
    EXPECT_TRUE(q.olderStoreUnissued(5));
    q.markIssued(7);
    EXPECT_FALSE(q.olderStoreUnissued(4));
    EXPECT_TRUE(q.olderStoreUnissued(8));
    q.markIssued(4);
    EXPECT_FALSE(q.olderStoreUnissued(8));
}

TEST(StoreQueue, CommitBetweenOutOfOrderIssues)
{
    StoreQueue q;
    q.dispatch(1, 0x100);
    q.dispatch(3, 0x200);
    q.dispatch(6, 0x300);
    q.markIssued(1);
    q.markIssued(6);
    q.commit(1);
    EXPECT_EQ(q.size(), 2u);
    // 3 is still the oldest unissued after the pop.
    EXPECT_TRUE(q.olderStoreUnissued(4));
    EXPECT_FALSE(q.olderStoreUnissued(2));
    q.dispatch(9, 0x400);
    q.markIssued(3);
    // Next unissued is the newly dispatched 9, not the issued 6.
    EXPECT_FALSE(q.olderStoreUnissued(9));
    EXPECT_TRUE(q.olderStoreUnissued(10));
    q.commit(3);
    q.commit(6);
    q.markIssued(9);
    EXPECT_FALSE(q.olderStoreUnissued(10));
    // Issued stores still forward after earlier commits.
    auto f = q.forwardFrom(10, 0x400);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(*f, 9u);
    q.commit(9);
    EXPECT_EQ(q.size(), 0u);
}

TEST(StoreQueue, ClearResetsUnissuedTracking)
{
    StoreQueue q;
    q.dispatch(10, 0x100);
    q.dispatch(11, 0x104);
    q.markIssued(11);
    q.clear();
    EXPECT_FALSE(q.olderStoreUnissued(100));
    // Tracking starts afresh: older seqs are accepted and gate again.
    q.dispatch(2, 0x200);
    EXPECT_TRUE(q.olderStoreUnissued(3));
    q.markIssued(2);
    EXPECT_FALSE(q.olderStoreUnissued(3));
}

TEST(StoreQueue, ManyStoresWrapTheRing)
{
    // Far more stores than the ring's first allocation, with commits
    // interleaved so head and tail both wrap.
    StoreQueue q;
    uint64_t next_commit = 0;
    for (uint64_t s = 0; s < 200; ++s) {
        q.dispatch(s, static_cast<uint32_t>(0x1000 + 4 * s));
        if (s >= 3) {
            q.markIssued(s - 3);
            EXPECT_TRUE(q.olderStoreUnissued(s + 1));
        }
        if (s >= 20)
            q.commit(next_commit++);
    }
    EXPECT_EQ(q.size(), 200u - next_commit);
    q.markIssued(197);
    q.markIssued(198);
    q.markIssued(199);
    EXPECT_FALSE(q.olderStoreUnissued(1000));
    auto f = q.forwardFrom(1000, 0x1000 + 4 * 190);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(*f, 190u);
}

TEST(StoreQueueDeathTest, DoubleIssueAndClearedStorePanic)
{
    StoreQueue q;
    q.dispatch(5, 0x100);
    q.markIssued(5);
    EXPECT_DEATH(q.markIssued(5), "unknown");
    q.dispatch(6, 0x104);
    q.clear();
    EXPECT_DEATH(q.markIssued(6), "unknown");
}
