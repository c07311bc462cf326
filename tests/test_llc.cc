/** @file Tests for the last-level cache model. */

#include <gtest/gtest.h>

#include <vector>

#include "sys/llc.hh"

using namespace nvsim;

namespace
{

LlcParams
tinyLlc(unsigned ways = 2, Bytes capacity = 16 * kLineSize)
{
    return LlcParams{capacity, ways};
}

} // namespace

TEST(Llc, MissThenHit)
{
    Llc llc(tinyLlc());
    LlcResult r1 = llc.access(0, false);
    EXPECT_TRUE(r1.missed);
    EXPECT_FALSE(r1.hit);
    LlcResult r2 = llc.access(0, false);
    EXPECT_TRUE(r2.hit);
    EXPECT_TRUE(llc.resident(0));
}

TEST(Llc, StoreMarksDirtyAndEvictionReportsIt)
{
    Llc llc(tinyLlc(1, 4 * kLineSize));  // 4 sets, direct mapped
    llc.access(0, true);                  // dirty line 0
    // Alias of line 0 in a 4-set direct-mapped cache.
    Addr alias = 4 * kLineSize;
    LlcResult r = llc.access(alias, false);
    EXPECT_TRUE(r.missed);
    EXPECT_TRUE(r.evictedDirty);
    EXPECT_EQ(r.victim, 0u);
}

TEST(Llc, CleanEvictionIsSilent)
{
    Llc llc(tinyLlc(1, 4 * kLineSize));
    llc.access(0, false);
    LlcResult r = llc.access(4 * kLineSize, false);
    EXPECT_TRUE(r.missed);
    EXPECT_FALSE(r.evictedDirty);
}

TEST(Llc, LruReplacementWithinSet)
{
    Llc llc(tinyLlc(2, 8 * kLineSize));  // 4 sets x 2 ways
    Addr a = 0;
    Addr b = 4 * kLineSize;   // same set, different tag
    Addr c = 8 * kLineSize;   // same set again
    llc.access(a, false);
    llc.access(b, false);
    llc.access(a, false);  // refresh a
    llc.access(c, false);  // evicts b
    EXPECT_TRUE(llc.resident(a));
    EXPECT_FALSE(llc.resident(b));
    EXPECT_TRUE(llc.resident(c));
}

TEST(Llc, NontemporalInvalidateDropsWithoutWriteback)
{
    Llc llc(tinyLlc());
    llc.access(0, true);  // dirty
    llc.invalidateLine(0);
    EXPECT_FALSE(llc.resident(0));
    // Refill misses but reports no dirty eviction (the line vanished).
    LlcResult r = llc.access(0, false);
    EXPECT_TRUE(r.missed);
    EXPECT_FALSE(r.evictedDirty);
}

TEST(Llc, FlushWritesBackExactlyDirtyLines)
{
    Llc llc(tinyLlc(2, 16 * kLineSize));
    llc.access(0, true);
    llc.access(kLineSize, false);
    llc.access(2 * kLineSize, true);
    std::vector<Addr> written;
    llc.flush([&](Addr a) { written.push_back(a); });
    EXPECT_EQ(written.size(), 2u);
    EXPECT_FALSE(llc.resident(0));
    EXPECT_FALSE(llc.resident(kLineSize));
}

TEST(Llc, InvalidateAll)
{
    Llc llc(tinyLlc());
    llc.access(0, true);
    llc.access(64, false);
    llc.invalidateAll();
    EXPECT_FALSE(llc.resident(0));
    EXPECT_FALSE(llc.resident(64));
}

TEST(Llc, CapacityIsRespected)
{
    Llc llc(tinyLlc(2, 16 * kLineSize));
    EXPECT_EQ(llc.capacity(), 16 * kLineSize);
    // Fill with 32 distinct lines: only 16 can survive.
    unsigned resident = 0;
    for (Addr a = 0; a < 32 * kLineSize; a += kLineSize)
        llc.access(a, false);
    for (Addr a = 0; a < 32 * kLineSize; a += kLineSize)
        resident += llc.resident(a) ? 1 : 0;
    EXPECT_EQ(resident, 16u);
}

TEST(Llc, MissRefillsNtInvalidatedWayBeforeLru)
{
    Llc llc(tinyLlc(4, 16 * kLineSize));  // 4 sets x 4 ways
    const Addr stride = 4 * kLineSize;    // same set, next tag
    for (Addr k = 0; k < 4; ++k)
        llc.access(k * stride, false);    // line 0 is LRU
    llc.invalidateLine(2 * stride);       // a middle way empties
    LlcResult r = llc.access(4 * stride, false);
    EXPECT_TRUE(r.missed);
    EXPECT_FALSE(r.evictedDirty);
    // The new line took the invalidated way: the LRU line survives.
    EXPECT_TRUE(llc.resident(0));
    EXPECT_TRUE(llc.resident(4 * stride));
    EXPECT_FALSE(llc.resident(2 * stride));
    // The set is full again, so the next miss replaces the LRU line.
    llc.access(5 * stride, false);
    EXPECT_FALSE(llc.resident(0));
    EXPECT_TRUE(llc.resident(stride));
}

TEST(Llc, StoreHitOnLruWayKeepsDirtyThroughEviction)
{
    Llc llc(tinyLlc(2, 8 * kLineSize));  // 4 sets x 2 ways
    const Addr a = 0;
    const Addr b = 4 * kLineSize;        // same set as a
    llc.access(a, false);
    llc.access(b, false);                // a is now the LRU way
    EXPECT_TRUE(llc.access(a, true).hit);  // store hit dirties it
    EXPECT_TRUE(llc.access(a, false).hit); // a load leaves it dirty
    LlcResult rb = llc.access(8 * kLineSize, false);  // evicts b
    EXPECT_TRUE(rb.missed);
    EXPECT_FALSE(rb.evictedDirty);
    LlcResult ra = llc.access(12 * kLineSize, false);  // evicts a
    EXPECT_TRUE(ra.missed);
    EXPECT_TRUE(ra.evictedDirty);
    EXPECT_EQ(ra.victim, a);
    // The line that replaced a went in clean: its eviction is silent.
    llc.access(16 * kLineSize, false);
    EXPECT_FALSE(llc.access(20 * kLineSize, false).evictedDirty);
    EXPECT_EQ(llc.dirtyEvictionCount(), 1u);
}
