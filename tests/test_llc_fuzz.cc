/**
 * @file
 * Differential fuzzer for the LLC: the production Llc (recency word,
 * O(1) misses inside a run of consecutive lines, previous-line memo)
 * against the stamp-scanning LLC it replaced (ref/stamp_llc.hh). Each
 * seeded case draws 1-16 ways and 1-20 sets (powers of two and not).
 * Run cases stream runs of consecutive lines up to three capacities
 * long — loads, stores, a mix or read-modify-writes — broken at random
 * by single accesses, repeats of the last line, invalidateLine,
 * invalidateAll and flush calls. Edge-list cases walk neighbour lists
 * the way a graph kernel does: each edge line is read once per edge,
 * with single accesses to a small working set of property lines in
 * between, so most edge reads return to the line before the current
 * one. After every call the LlcResult, the four counters and, for
 * flush, the order of the writebacks must match.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/rng.hh"
#include "ref/stamp_llc.hh"
#include "sys/llc.hh"

using namespace nvsim;

namespace
{

constexpr unsigned kCases = 3000;

std::uint64_t
between(Rng &rng, std::uint64_t lo, std::uint64_t hi)
{
    return lo + rng.below(hi - lo + 1);
}

/** The production LLC and the reference, driven in lockstep. */
struct Twin
{
    ref::Llc want;
    Llc got;

    explicit Twin(const LlcParams &p) : want(p), got(p) {}

    ::testing::AssertionResult
    sameCounters() const
    {
        if (want.hitCount() != got.hitCount() ||
            want.missCount() != got.missCount() ||
            want.dirtyEvictionCount() != got.dirtyEvictionCount() ||
            want.ntInvalidateCount() != got.ntInvalidateCount()) {
            return ::testing::AssertionFailure()
                   << "counters differ: hits " << want.hitCount() << "/"
                   << got.hitCount() << " misses " << want.missCount()
                   << "/" << got.missCount() << " dirty evictions "
                   << want.dirtyEvictionCount() << "/"
                   << got.dirtyEvictionCount() << " nt invalidates "
                   << want.ntInvalidateCount() << "/"
                   << got.ntInvalidateCount();
        }
        return ::testing::AssertionSuccess();
    }

    ::testing::AssertionResult
    access(Addr addr, bool is_store)
    {
        const LlcResult a = want.access(addr, is_store);
        const LlcResult b = got.access(addr, is_store);
        if (a.hit != b.hit || a.missed != b.missed ||
            a.evictedDirty != b.evictedDirty || a.victim != b.victim) {
            return ::testing::AssertionFailure()
                   << (is_store ? "store" : "load") << " of line "
                   << lineIndex(addr) << " differs: hit " << a.hit << "/"
                   << b.hit << " evictedDirty " << a.evictedDirty << "/"
                   << b.evictedDirty << " victim " << a.victim << "/"
                   << b.victim;
        }
        return sameCounters();
    }

    ::testing::AssertionResult
    invalidateLine(Addr addr)
    {
        want.invalidateLine(addr);
        got.invalidateLine(addr);
        return sameCounters();
    }

    ::testing::AssertionResult
    resident(Addr addr) const
    {
        if (want.resident(addr) != got.resident(addr)) {
            return ::testing::AssertionFailure()
                   << "residency of line " << lineIndex(addr) << " differs";
        }
        return ::testing::AssertionSuccess();
    }

    ::testing::AssertionResult
    flush()
    {
        std::vector<Addr> a, b;
        want.flush([&](Addr line) { a.push_back(line); });
        got.flush([&](Addr line) { b.push_back(line); });
        if (a != b) {
            return ::testing::AssertionFailure()
                   << "flush writebacks differ: " << a.size() << " vs "
                   << b.size() << " lines";
        }
        return sameCounters();
    }

    void
    invalidateAll()
    {
        want.invalidateAll();
        got.invalidateAll();
    }
};

/** Run case @p seed; failures name the seed and the geometry. */
void
fuzzCase(std::uint64_t seed)
{
    Rng rng(seed);
    const unsigned ways = static_cast<unsigned>(between(rng, 1, 16));
    const std::uint64_t sets = between(rng, 1, 20);
    const std::uint64_t cap = sets * ways;
    SCOPED_TRACE(testing::Message() << "seed " << seed << " ways " << ways
                                    << " sets " << sets);
    Twin t(LlcParams{cap * kLineSize, ways});
    ASSERT_EQ(t.got.numSets(), sets);

    // Runs start inside a window of a few capacities, so they revisit
    // each other's lines; some cases sit far out, where tags are large.
    const std::uint64_t window = cap * between(rng, 1, 6);
    const std::uint64_t origin = rng.below(2) ? 0 : rng.below(1ull << 40);
    auto addrOf = [&](std::uint64_t line) {
        return line * kLineSize + rng.below(kLineSize);
    };
    const unsigned runs = static_cast<unsigned>(between(rng, 1, 30));
    for (unsigned r = 0; r < runs; ++r) {
        const std::uint64_t first = origin + rng.below(window);
        const std::uint64_t len = between(rng, 1, 3 * cap);
        // Loads, stores, a mix, or read-modify-write (load, then store
        // the same line).
        const unsigned mode = static_cast<unsigned>(rng.below(4));
        // Mean lines between interruptions; 0 streams the run unbroken.
        const std::uint64_t noise =
            rng.below(3) ? between(rng, 2, 4 * cap) : 0;
        SCOPED_TRACE(testing::Message() << "run " << r << " from line "
                                        << first << " len " << len);
        for (std::uint64_t i = 0; i < len; ++i) {
            const std::uint64_t line = first + i;
            const bool store = mode == 2 ? rng.below(2) != 0 : mode == 1;
            ASSERT_TRUE(t.access(addrOf(line), store)) << "at line " << i;
            if (mode == 3) {
                ASSERT_TRUE(t.access(addrOf(line), true)) << "at line " << i;
            }
            if (!noise || rng.below(noise) != 0)
                continue;
            // An interruption inside the run.
            const std::uint64_t recent =
                line - rng.below(std::min<std::uint64_t>(i + 1, 2 * cap));
            const std::uint64_t far = origin + rng.below(window);
            const bool st = rng.below(2) != 0;
            switch (rng.below(6)) {
              case 0:
                ASSERT_TRUE(t.access(addrOf(recent), st));
                break;
              case 1:
                ASSERT_TRUE(t.access(addrOf(far), st));
                break;
              case 2:
                ASSERT_TRUE(t.access(addrOf(line), st));
                break;
              case 3:
                ASSERT_TRUE(t.invalidateLine(addrOf(recent)));
                break;
              case 4:
                ASSERT_TRUE(t.invalidateLine(addrOf(far)));
                break;
              default:
                ASSERT_TRUE(t.resident(addrOf(recent)));
                break;
            }
        }
        switch (rng.below(8)) {
          case 0:
            t.invalidateAll();
            ASSERT_TRUE(t.sameCounters());
            break;
          case 1:
            ASSERT_TRUE(t.flush());
            break;
          default:
            break;
        }
    }
    ASSERT_TRUE(t.flush());
}

/**
 * Edge-list case @p seed: neighbour lists of edge lines, each line
 * read `words` times, every read followed by a property access with
 * probability 1/gap (never when gap is 0, which streams the lists).
 * Between lists, and now and then inside one, come invalidates of a
 * recent edge line or a property line, invalidateAll and flush.
 */
void
edgeListCase(std::uint64_t seed)
{
    Rng rng(seed);
    const unsigned ways = static_cast<unsigned>(between(rng, 1, 16));
    const std::uint64_t sets = between(rng, 1, 20);
    const std::uint64_t cap = sets * ways;
    SCOPED_TRACE(testing::Message() << "edge-list seed " << seed << " ways "
                                    << ways << " sets " << sets);
    Twin t(LlcParams{cap * kLineSize, ways});

    const std::uint64_t origin = rng.below(2) ? 0 : rng.below(1ull << 40);
    // The property lines sit past the edges or overlap them.
    const std::uint64_t props = origin + rng.below(8 * cap);
    const std::uint64_t hot = between(rng, 1, 2 * cap);
    const std::uint64_t words = between(rng, 1, 8);
    const std::uint64_t gap = rng.below(4);
    const bool stores = rng.below(3) == 0;
    auto addrOf = [&](std::uint64_t line) {
        return line * kLineSize + rng.below(kLineSize);
    };
    std::uint64_t edge = origin;
    const unsigned lists = static_cast<unsigned>(between(rng, 1, 12));
    for (unsigned l = 0; l < lists; ++l) {
        if (rng.below(3) == 0)
            edge = origin + rng.below(4 * cap);  // a list elsewhere
        const std::uint64_t len = between(rng, 1, 2 * cap);
        SCOPED_TRACE(testing::Message() << "list " << l << " from line "
                                        << edge << " len " << len);
        for (std::uint64_t i = 0; i < len; ++i, ++edge) {
            for (std::uint64_t k = 0; k < words; ++k) {
                ASSERT_TRUE(t.access(addrOf(edge), false));
                if (gap && rng.below(gap) == 0) {
                    const bool st = stores && rng.below(2) != 0;
                    ASSERT_TRUE(t.access(addrOf(props + rng.below(hot)), st));
                }
                if (rng.below(64) == 0) {
                    ASSERT_TRUE(t.invalidateLine(
                        addrOf(rng.below(2) ? edge - rng.below(i + 1)
                                            : props + rng.below(hot))));
                }
            }
        }
        switch (rng.below(8)) {
          case 0:
            t.invalidateAll();
            ASSERT_TRUE(t.sameCounters());
            break;
          case 1:
            ASSERT_TRUE(t.flush());
            break;
          case 2:
            ASSERT_TRUE(t.invalidateLine(addrOf(edge - 1)));
            break;
          default:
            break;
        }
    }
    ASSERT_TRUE(t.flush());
}

} // namespace

TEST(LlcFuzz, StreakMatchesTheStampScanReference)
{
    for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
        fuzzCase(seed);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(LlcFuzz, EdgeListMatchesTheStampScanReference)
{
    for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
        edgeListCase(seed);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}
