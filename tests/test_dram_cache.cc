/**
 * @file
 * Tests for the 2LM DRAM cache. The central suite verifies Table I of
 * the paper: every request type generates exactly the device actions
 * (and thus access amplification) measured on the real hardware —
 * amplification 1 / 3 / 4 / 2 / 4 / 5 / 1 for read hit, clean read
 * miss, dirty read miss, write hit, clean write miss, dirty write miss
 * and DDO write.
 */

#include <gtest/gtest.h>

#include "imc/dram_cache.hh"

using namespace nvsim;

namespace
{

/** A tiny cache: 64 sets x 1 way, DDO disabled unless stated. */
DramCacheParams
tinyParams(DdoMode mode = DdoMode::None)
{
    DramCacheParams p;
    p.capacity = 64 * kLineSize;
    p.ddo.mode = mode;
    p.ddo.trackerEntries = 64;
    p.ways = 1;
    return p;
}

/** Address that maps to the same set as @p addr but a different tag. */
Addr
aliasOf(const DramCache &cache, Addr addr)
{
    return addr + cache.numSets() * kLineSize;
}

} // namespace

// --- Table I: LLC read columns -------------------------------------------

TEST(DramCacheTableI, ReadHit)
{
    DramCache cache(tinyParams());
    cache.read(0);  // fill
    CacheResult r = cache.read(0);
    EXPECT_EQ(r.outcome, CacheOutcome::Hit);
    EXPECT_EQ(r.actions.dramReads, 1u);
    EXPECT_EQ(r.actions.dramWrites, 0u);
    EXPECT_EQ(r.actions.nvramReads, 0u);
    EXPECT_EQ(r.actions.nvramWrites, 0u);
    EXPECT_EQ(r.actions.total(), 1u);  // amplification 1
}

TEST(DramCacheTableI, ReadMissClean)
{
    DramCache cache(tinyParams());
    CacheResult r = cache.read(0);
    EXPECT_EQ(r.outcome, CacheOutcome::MissClean);
    EXPECT_EQ(r.actions.dramReads, 1u);   // tag+data fetch
    EXPECT_EQ(r.actions.nvramReads, 1u);  // line fetch
    EXPECT_EQ(r.actions.dramWrites, 1u);  // insert
    EXPECT_EQ(r.actions.nvramWrites, 0u);
    EXPECT_EQ(r.actions.total(), 3u);  // amplification 3
    EXPECT_TRUE(r.filled);
    EXPECT_EQ(r.fill, 0u);
    EXPECT_FALSE(r.wroteBack);
}

TEST(DramCacheTableI, ReadMissDirty)
{
    DramCache cache(tinyParams());
    cache.write(0);  // make line 0 resident and dirty
    Addr alias = aliasOf(cache, 0);
    CacheResult r = cache.read(alias);
    EXPECT_EQ(r.outcome, CacheOutcome::MissDirty);
    EXPECT_EQ(r.actions.dramReads, 1u);
    EXPECT_EQ(r.actions.nvramReads, 1u);
    EXPECT_EQ(r.actions.dramWrites, 1u);
    EXPECT_EQ(r.actions.nvramWrites, 1u);  // dirty victim writeback
    EXPECT_EQ(r.actions.total(), 4u);  // amplification 4
    EXPECT_TRUE(r.wroteBack);
    EXPECT_EQ(r.victim, 0u);  // the aliased line was written back
}

// --- Table I: LLC write columns ------------------------------------------

TEST(DramCacheTableI, WriteHit)
{
    DramCache cache(tinyParams());
    cache.read(0);  // insert clean
    CacheResult r = cache.write(0);
    EXPECT_EQ(r.outcome, CacheOutcome::Hit);
    EXPECT_EQ(r.actions.dramReads, 1u);   // tag check
    EXPECT_EQ(r.actions.dramWrites, 1u);  // data write
    EXPECT_EQ(r.actions.total(), 2u);  // amplification 2
    EXPECT_TRUE(cache.residentDirty(0));
}

TEST(DramCacheTableI, WriteMissClean)
{
    DramCache cache(tinyParams());
    CacheResult r = cache.write(0);
    EXPECT_EQ(r.outcome, CacheOutcome::MissClean);
    EXPECT_EQ(r.actions.dramReads, 1u);   // tag check
    EXPECT_EQ(r.actions.nvramReads, 1u);  // insert-on-miss fetch
    EXPECT_EQ(r.actions.dramWrites, 2u);  // insert + data write
    EXPECT_EQ(r.actions.nvramWrites, 0u);
    EXPECT_EQ(r.actions.total(), 4u);  // amplification 4
    EXPECT_TRUE(cache.residentDirty(0));
}

TEST(DramCacheTableI, WriteMissDirty)
{
    DramCache cache(tinyParams());
    cache.write(0);  // dirty occupant
    Addr alias = aliasOf(cache, 0);
    CacheResult r = cache.write(alias);
    EXPECT_EQ(r.outcome, CacheOutcome::MissDirty);
    EXPECT_EQ(r.actions.dramReads, 1u);
    EXPECT_EQ(r.actions.nvramReads, 1u);
    EXPECT_EQ(r.actions.dramWrites, 2u);
    EXPECT_EQ(r.actions.nvramWrites, 1u);
    EXPECT_EQ(r.actions.total(), 5u);  // amplification 5
    EXPECT_EQ(r.victim, 0u);
}

TEST(DramCacheTableI, DirtyDataOptimization)
{
    DramCache cache(tinyParams(DdoMode::RecentTracker));
    cache.read(0);  // miss handler inserts and records the line
    CacheResult r = cache.write(0);
    EXPECT_EQ(r.outcome, CacheOutcome::DdoHit);
    EXPECT_EQ(r.actions.dramReads, 0u);   // tag check elided
    EXPECT_EQ(r.actions.dramWrites, 1u);
    EXPECT_EQ(r.actions.total(), 1u);  // amplification 1
    EXPECT_TRUE(cache.residentDirty(0));
}

// --- Behavior beyond the table -------------------------------------------

TEST(DramCache, InsertOnMissEvictsPreviousOccupant)
{
    DramCache cache(tinyParams());
    cache.read(0);
    Addr alias = aliasOf(cache, 0);
    cache.read(alias);
    EXPECT_FALSE(cache.resident(0));
    EXPECT_TRUE(cache.resident(alias));
}

TEST(DramCache, CleanVictimIsNotWrittenBack)
{
    DramCache cache(tinyParams());
    cache.read(0);  // clean occupant
    CacheResult r = cache.read(aliasOf(cache, 0));
    EXPECT_EQ(r.outcome, CacheOutcome::MissClean);
    EXPECT_FALSE(r.wroteBack);
}

TEST(DramCache, DirtyBitClearedOnRefill)
{
    DramCache cache(tinyParams());
    cache.write(0);
    cache.read(aliasOf(cache, 0));  // evicts dirty line 0
    // Re-reading line 0 must treat the (new) occupant as clean.
    CacheResult r = cache.read(0);
    EXPECT_EQ(r.outcome, CacheOutcome::MissClean);
}

TEST(DramCache, DistinctSetsDoNotConflict)
{
    DramCache cache(tinyParams());
    for (Addr a = 0; a < 64 * kLineSize; a += kLineSize)
        cache.read(a);
    for (Addr a = 0; a < 64 * kLineSize; a += kLineSize)
        EXPECT_TRUE(cache.resident(a));
}

TEST(DramCache, RejectsOversizedTagStore)
{
    DramCacheParams p;
    p.capacity = 1ull << 60;
    EXPECT_DEATH(DramCache cache(p), "scale");
}

// --- 16-bit tag word -----------------------------------------------------

TEST(DramCacheTagWord, HoldsTheLowestAndHighestTagInOneSet)
{
    // One set of two ways: tag t is the line at t * 64 B. Tags 0 and
    // kMaxTag (0x7FFE) sit side by side; each keeps its own dirty flag
    // and comes back out as the right victim address.
    DramCacheParams p = tinyParams();
    p.capacity = 2 * kLineSize;
    p.ways = 2;
    DramCache cache(p);
    ASSERT_EQ(cache.numSets(), 1u);
    const Addr low = 0;
    const Addr high = DramCache::kMaxTag * kLineSize;
    ASSERT_EQ(DramCache::kMaxTag, 0x7FFEu);

    EXPECT_EQ(cache.write(high).outcome, CacheOutcome::MissClean);
    EXPECT_EQ(cache.read(low).outcome, CacheOutcome::MissClean);
    EXPECT_TRUE(cache.resident(low));
    EXPECT_TRUE(cache.resident(high));
    EXPECT_TRUE(cache.residentDirty(high));
    EXPECT_FALSE(cache.residentDirty(low));
    EXPECT_EQ(cache.read(high).outcome, CacheOutcome::Hit);
    EXPECT_EQ(cache.write(low).outcome, CacheOutcome::Hit);
    EXPECT_TRUE(cache.residentDirty(low));

    // A third tag evicts the LRU way (high, dirty): written back at
    // its own address.
    CacheResult r = cache.read(kLineSize);
    EXPECT_EQ(r.outcome, CacheOutcome::MissDirty);
    EXPECT_TRUE(r.wroteBack);
    EXPECT_EQ(r.victim, high);
    EXPECT_FALSE(cache.resident(high));
    EXPECT_TRUE(cache.residentDirty(low));

    // And the next one evicts low (dirty) at address 0.
    r = cache.read(2 * kLineSize);
    EXPECT_EQ(r.outcome, CacheOutcome::MissDirty);
    EXPECT_EQ(r.victim, low);
    EXPECT_TRUE(cache.resident(kLineSize));
    EXPECT_TRUE(cache.resident(2 * kLineSize));
}

TEST(DramCacheTagWordDeathTest, InsertingATagTheWordCannotHoldPanics)
{
    // Tag 0x7FFF is the empty way's tag field: a probe must not match
    // an empty way, and inserting it must panic rather than alias.
    DramCacheParams p = tinyParams();
    p.capacity = kLineSize;
    DramCache cache(p);
    const Addr addr = (DramCache::kMaxTag + 1) * kLineSize;
    EXPECT_FALSE(cache.resident(addr));
    EXPECT_FALSE(cache.residentDirty(addr));
    EXPECT_DEATH(cache.read(addr), "16-bit tag word");
}

// --- Associativity ablation ----------------------------------------------

TEST(DramCacheAssoc, TwoWayAbsorbsSingleAlias)
{
    DramCacheParams p = tinyParams();
    p.ways = 2;
    DramCache cache(p);
    Addr a = 0;
    Addr b = aliasOf(cache, a);
    cache.read(a);
    cache.read(b);
    // Both alive: 2 ways hold 2 aliasing lines.
    EXPECT_TRUE(cache.resident(a));
    EXPECT_TRUE(cache.resident(b));
    // A third alias evicts the LRU line (a).
    Addr c = b + cache.numSets() * kLineSize;
    cache.read(c);
    EXPECT_FALSE(cache.resident(a));
    EXPECT_TRUE(cache.resident(b));
    EXPECT_TRUE(cache.resident(c));
}

TEST(DramCacheAssoc, LruIsUpdatedByHits)
{
    DramCacheParams p = tinyParams();
    p.ways = 2;
    DramCache cache(p);
    Addr a = 0;
    Addr b = aliasOf(cache, a);
    cache.read(a);
    cache.read(b);
    cache.read(a);  // refresh a
    Addr c = b + cache.numSets() * kLineSize;
    cache.read(c);  // should evict b (the LRU), not a
    EXPECT_TRUE(cache.resident(a));
    EXPECT_FALSE(cache.resident(b));
}

/** Table I invariants hold for every associativity. */
class DramCacheWays : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DramCacheWays, MissAmplificationIndependentOfWays)
{
    DramCacheParams p = tinyParams();
    p.ways = GetParam();
    DramCache cache(p);
    CacheResult r = cache.read(0);
    EXPECT_EQ(r.actions.total(), 3u);
    CacheResult w = cache.write(64 * 1024);
    EXPECT_EQ(w.actions.total(), 4u);
}

INSTANTIATE_TEST_SUITE_P(Ways, DramCacheWays,
                         ::testing::Values(1u, 2u, 4u, 8u));

// --- LRU clock wrap ------------------------------------------------------

namespace
{

/** A DRAM cache whose 32-bit LRU clock starts @p headroom below its max. */
class NearWrapCache : public DramCache
{
  public:
    NearWrapCache(const DramCacheParams &p, std::uint32_t headroom)
        : DramCache(p)
    {
        lruClock_ = ~std::uint32_t{0} - headroom;
    }
};

} // namespace

TEST(DramCacheAssoc, LruClockNearWrapPicksTheSameVictims)
{
    // 16 sets x 4 ways under random reads and writes over four
    // capacities' worth of lines; the clock
    // passes its maximum after 500 touches. Every result must match a
    // cache whose clock starts at zero.
    DramCacheParams p = tinyParams();
    p.ways = 4;
    DramCache plain(p);
    NearWrapCache wrapping(p, 500);
    const std::uint64_t lines = 4 * p.capacity / kLineSize;
    std::uint64_t x = 7;
    for (unsigned i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const Addr addr = ((x >> 20) % lines) * kLineSize;
        const bool is_write = (x >> 40) % 3 == 0;
        CacheResult a = is_write ? plain.write(addr) : plain.read(addr);
        CacheResult b =
            is_write ? wrapping.write(addr) : wrapping.read(addr);
        ASSERT_EQ(a.outcome, b.outcome) << "access " << i;
        ASSERT_EQ(a.wroteBack, b.wroteBack) << "access " << i;
        ASSERT_EQ(a.victim, b.victim) << "access " << i;
        ASSERT_EQ(a.fill, b.fill) << "access " << i;
        ASSERT_EQ(a.actions.total(), b.actions.total()) << "access " << i;
    }
}
