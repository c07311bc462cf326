/**
 * @file
 * Golden-model cross-check: the DramCache (with all its action
 * accounting and DDO plumbing) is driven with long pseudo-random
 * request streams and compared, access by access, against a trivially
 * simple reference implementation of a direct-mapped / set-associative
 * cache. Catches state-machine divergence no directed test would.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/rng.hh"
#include "imc/cache_policy.hh"
#include "imc/dram_cache.hh"

using namespace nvsim;

namespace
{

/** Dumb reference cache: map from set to a vector of (tag, dirty). */
class RefCache
{
  public:
    RefCache(std::uint64_t sets, unsigned ways)
        : sets_(sets), ways_(ways)
    {
    }

    struct Line
    {
        std::uint64_t tag;
        bool dirty;
        std::uint64_t lru;
    };

    /** What one access did to the reference. */
    struct Outcome
    {
        bool hit = false;
        bool victimDirty = false;  //!< a dirty line was evicted
        Addr victim = 0;           //!< its line address, if so
    };

    Outcome
    access(Addr addr, bool is_write)
    {
        std::uint64_t set = lineIndex(addr) % sets_;
        std::uint64_t tag = lineIndex(addr) / sets_;
        auto &lines = store_[set];
        Outcome out;
        for (auto &l : lines) {
            if (l.tag == tag) {
                if (is_write)
                    l.dirty = true;
                l.lru = ++clock_;
                out.hit = true;
                return out;
            }
        }
        if (lines.size() >= ways_) {
            std::size_t victim = 0;
            for (std::size_t i = 1; i < lines.size(); ++i) {
                if (lines[i].lru < lines[victim].lru)
                    victim = i;
            }
            out.victimDirty = lines[victim].dirty;
            out.victim = (lines[victim].tag * sets_ + set) * kLineSize;
            lines.erase(lines.begin() + static_cast<long>(victim));
        }
        lines.push_back({tag, is_write, ++clock_});
        return out;
    }

    /** Is the line resident and dirty? */
    bool
    dirty(Addr addr) const
    {
        const Line *l = find(addr);
        return l && l->dirty;
    }

    bool resident(Addr addr) const { return find(addr) != nullptr; }

  private:
    const Line *
    find(Addr addr) const
    {
        std::uint64_t set = lineIndex(addr) % sets_;
        std::uint64_t tag = lineIndex(addr) / sets_;
        auto it = store_.find(set);
        if (it == store_.end())
            return nullptr;
        for (const auto &l : it->second) {
            if (l.tag == tag)
                return &l;
        }
        return nullptr;
    }

    std::uint64_t sets_;
    unsigned ways_;
    std::uint64_t clock_ = 0;
    std::map<std::uint64_t, std::vector<Line>> store_;
};

} // namespace

class CacheVsReference
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{
};

TEST_P(CacheVsReference, RandomStreamAgrees)
{
    auto [ways, addr_space_lines] = GetParam();
    DramCacheParams p;
    p.capacity = 256 * kLineSize;
    p.ways = ways;
    p.ddo.mode = DdoMode::None;  // DDO changes actions, not state
    DramCache cache(p);
    RefCache ref(cache.numSets(), ways);

    Rng rng(40 + ways);
    for (int i = 0; i < 50000; ++i) {
        Addr addr = rng.below(addr_space_lines) * kLineSize;
        bool is_write = rng.below(3) == 0;

        RefCache::Outcome want = ref.access(addr, is_write);
        CacheResult r = is_write ? cache.write(addr) : cache.read(addr);

        bool model_hit = r.outcome == CacheOutcome::Hit;
        ASSERT_EQ(model_hit, want.hit) << "step " << i;
        if (!model_hit) {
            bool model_victim_dirty =
                r.outcome == CacheOutcome::MissDirty;
            ASSERT_EQ(model_victim_dirty, want.victimDirty)
                << "step " << i;
        }
        ASSERT_EQ(r.wroteBack, want.victimDirty) << "step " << i;
        if (r.wroteBack) {
            ASSERT_EQ(r.victim, want.victim) << "step " << i;
        }
        // Post-state: the accessed line is resident in both.
        ASSERT_TRUE(cache.resident(addr));
        ASSERT_TRUE(ref.resident(addr));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheVsReference,
    ::testing::Combine(::testing::Values(1u, 2u, 4u),
                       ::testing::Values(128u, 512u, 4096u)));

TEST(CacheVsReference, DdoPreservesStateAgreement)
{
    // With the tracker enabled, outcomes may differ (DdoHit instead of
    // Hit) but residency and dirtiness must match the reference.
    DramCacheParams p;
    p.capacity = 128 * kLineSize;
    p.ddo.mode = DdoMode::RecentTracker;
    p.ddo.trackerEntries = 64;
    DramCache cache(p);
    RefCache ref(cache.numSets(), 1);

    Rng rng(7);
    for (int i = 0; i < 50000; ++i) {
        Addr addr = rng.below(400) * kLineSize;
        bool is_write = rng.below(2) == 0;
        ref.access(addr, is_write);
        if (is_write)
            cache.write(addr);
        else
            cache.read(addr);
        ASSERT_EQ(cache.resident(addr), ref.resident(addr))
            << "step " << i;
        if (is_write) {
            ASSERT_TRUE(cache.residentDirty(addr)) << "step " << i;
        }
    }
}

/**
 * Victim and dirty-flag coverage through the policy interface: every
 * eviction's writeback flag and victim address, and the dirty state
 * of the accessed line and of the evicted one, must match the
 * reference for the tags-in-ECC controller and the SRAM-tag policy.
 */
class PolicyVsReference
    : public ::testing::TestWithParam<std::tuple<std::string, unsigned>>
{
};

TEST_P(PolicyVsReference, VictimAndDirtyAgree)
{
    auto [kind, ways] = GetParam();
    DramCacheParams p;
    p.capacity = 256 * kLineSize;
    p.ways = ways;
    p.ddo.mode = DdoMode::None;
    CachePolicyConfig config;
    config.kind = kind;
    std::unique_ptr<CachePolicy> cache = makeCachePolicy(p, config);
    RefCache ref(cache->numSets(), ways);

    Rng rng(90 + ways);
    for (int i = 0; i < 50000; ++i) {
        Addr addr = rng.below(1024) * kLineSize;
        bool is_write = rng.below(3) == 0;

        RefCache::Outcome want = ref.access(addr, is_write);
        CacheResult r = is_write ? cache->write(addr) : cache->read(addr);

        ASSERT_EQ(r.outcome == CacheOutcome::Hit, want.hit)
            << "step " << i;
        ASSERT_EQ(r.outcome == CacheOutcome::MissDirty, want.victimDirty)
            << "step " << i;
        ASSERT_EQ(r.wroteBack, want.victimDirty) << "step " << i;
        if (want.victimDirty) {
            ASSERT_EQ(r.victim, want.victim) << "step " << i;
            ASSERT_FALSE(cache->resident(want.victim)) << "step " << i;
        }
        ASSERT_EQ(cache->residentDirty(addr), ref.dirty(addr))
            << "step " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, PolicyVsReference,
    ::testing::Values(std::make_tuple("direct_mapped_tag_ecc", 1u),
                      std::make_tuple("direct_mapped_tag_ecc", 4u),
                      std::make_tuple("sram_tag_set_assoc", 1u),
                      std::make_tuple("sram_tag_set_assoc", 4u)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               std::to_string(std::get<1>(info.param)) + "way";
    });
