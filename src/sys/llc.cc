#include "sys/llc.hh"

#include <bit>
#include <limits>

#include "core/logging.hh"

namespace nvsim
{

Llc::Llc(const LlcParams &params)
    : ways_(params.ways ? params.ways : 1),
      numSets_(params.capacity / kLineSize / ways_)
{
    if (numSets_ == 0)
        numSets_ = 1;
    const std::uint64_t lines = numSets_ * ways_;
    if (lines > std::numeric_limits<std::uint32_t>::max())
        fatal("LLC of %llu lines exceeds the 2^32-line limit",
              static_cast<unsigned long long>(lines));
    if (std::has_single_bit(numSets_)) {
        setMask_ = numSets_ - 1;
        setShift_ = std::countr_zero(numSets_);
    }
    ways_store_.assign(lines, Way{});
    runWays_.assign(lines, 0);
}

LlcResult
Llc::access(Addr addr, bool is_store)
{
    const std::uint64_t idx = lineIndex(addr);
    if (idx == runNext_ && runLen_ == runWays_.size())
        return streamMiss(idx, is_store);
    if (idx + 1 == runNext_)
        return repeatHit(is_store);

    std::uint64_t set, tag;
    splitIndex(idx, set, tag);
    Way *base = &ways_store_[set * ways_];

    // One pass finds the hit and, failing that, the replacement
    // victim: the first way with the lowest stamp. An empty way holds
    // stamp 0, below every live one, so this is the first invalid way,
    // else the first least-recently-used. Which way holds the lowest
    // stamp follows no pattern a branch predictor could learn, so the
    // scan selects it without branching (a branch there made graph
    // traffic ~30% slower per line).
    LlcResult result;
    unsigned hit = ways_, victim = 0;
    std::uint64_t oldest = base[0].lru;
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].tag() == tag) {
            hit = w;
            break;
        }
        const std::uint64_t lru = base[w].lru;
        const bool older = lru < oldest;
        oldest = older ? lru : oldest;
        victim = older ? w : victim;
    }
    Way *way;
    if (hit != ways_) {
        way = base + hit;
        result.hit = true;
        ++hits_;
    } else {
        way = base + victim;
        result.missed = true;
        ++misses_;
        if (way->dirty()) {
            result.evictedDirty = true;
            ++dirtyEvictions_;
            result.victim = addrOf(set, way->tag());
        }
        way->word = tag;  // a bare tag: valid and clean
    }
    if (is_store)
        way->word |= kDirtyBit;
    way->lru = ++lruClock_;

    // Extend the run, or open a new one at this line.
    if (idx != runNext_) {
        runLen_ = 0;
        runPos_ = 0;
    }
    runWays_[runPos_] = static_cast<std::uint32_t>(way - ways_store_.data());
    if (++runPos_ == runWays_.size())
        runPos_ = 0;
    ++runLen_;
    runNext_ = idx + 1;
    return result;
}

LlcResult
Llc::streamMiss(std::uint64_t idx, bool is_store)
{
    // Line idx evicts line idx - C from the way the ring remembers; it
    // lands in the same set with a tag `ways_` higher.
    Way &way = ways_store_[runWays_[runPos_]];
    if (++runPos_ == runWays_.size())
        runPos_ = 0;
    runNext_ = idx + 1;

    LlcResult result;
    result.missed = true;
    ++misses_;
    if (way.dirty()) {
        result.evictedDirty = true;
        ++dirtyEvictions_;
        result.victim = (idx - runWays_.size()) * kLineSize;
    }
    way.word = way.tag() + ways_;
    if (is_store)
        way.word |= kDirtyBit;
    way.lru = ++lruClock_;
    return result;
}

LlcResult
Llc::repeatHit(bool is_store)
{
    const std::size_t last = (runPos_ ? runPos_ : runWays_.size()) - 1;
    Way &way = ways_store_[runWays_[last]];
    LlcResult result;
    result.hit = true;
    ++hits_;
    if (is_store)
        way.word |= kDirtyBit;
    way.lru = ++lruClock_;
    return result;
}

void
Llc::invalidateLine(Addr addr)
{
    std::uint64_t set, tag;
    splitAddr(addr, set, tag);
    unsigned w = findWay(set, tag);
    if (w == ways_)
        return;
    ways_store_[set * ways_ + w] = Way{};
    ++ntInvalidates_;
    runNext_ = kNoRun;
}

bool
Llc::resident(Addr addr) const
{
    std::uint64_t set, tag;
    splitAddr(addr, set, tag);
    return findWay(set, tag) != ways_;
}

void
Llc::invalidateAll()
{
    for (auto &way : ways_store_)
        way = Way{};
    runNext_ = kNoRun;
}

} // namespace nvsim
