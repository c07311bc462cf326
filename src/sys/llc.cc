#include "sys/llc.hh"

#include "core/logging.hh"

namespace nvsim
{

Llc::Llc(const LlcParams &params)
    : ways_(params.ways ? params.ways : 1),
      numSets_(params.capacity / kLineSize / ways_)
{
    if (numSets_ == 0)
        numSets_ = 1;
    ways_store_.assign(numSets_ * ways_, Way{});
}

LlcResult
Llc::access(Addr addr, bool is_store)
{
    std::uint64_t set, tag;
    splitAddr(addr, set, tag);
    Way *base = &ways_store_[set * ways_];

    LlcResult result;
    Way *way = base + findWay(set, tag);
    if (way != base + ways_) {
        result.hit = true;
        ++hits_;
    } else {
        result.missed = true;
        ++misses_;
        // Replacement victim: the first way with the lowest stamp. An
        // empty way holds stamp 0, below every live one, so this is
        // the first invalid way, else the first least-recently-used.
        way = base;
        for (unsigned w = 1; w < ways_; ++w) {
            if (base[w].lru < way->lru)
                way = &base[w];
        }
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
}

} // namespace nvsim
