/**
 * @file
 * Reference oracle for the LLC fuzzer (test_llc_fuzz): the
 * set-associative LLC as it stood before misses inside a run of
 * consecutive lines became O(1). Every access splits the address by
 * division, probes the set's tags, and on a miss scans the set's
 * stamps for the victim. Kept verbatim apart from the namespace and
 * `inline` on out-of-class members; the production Llc must return
 * every LlcResult, statistic and flush writeback of this one.
 */

#ifndef NVSIM_TESTS_REF_STAMP_LLC_HH
#define NVSIM_TESTS_REF_STAMP_LLC_HH

#include <cstdint>
#include <vector>

#include "core/types.hh"
#include "sys/llc.hh"

namespace nvsim::ref
{

/** Set-associative writeback LLC. */
class Llc
{
  public:
    explicit Llc(const LlcParams &params);

    /**
     * Load or standard store to the line at @p addr. Stores allocate
     * via RFO, exactly like loads, and mark the line dirty.
     */
    LlcResult access(Addr addr, bool is_store);

    /**
     * Nontemporal store: no allocation; invalidates a cached copy
     * (without writeback — the store supersedes the data).
     */
    void invalidateLine(Addr addr);

    /** Is the line resident? */
    bool resident(Addr addr) const;

    /** Drop everything without writebacks. */
    void invalidateAll();

    /**
     * Evict every dirty line, invoking @p writeback(line_addr) on each,
     * then invalidate all. Used to quiesce between benchmark phases.
     */
    template <typename F>
    void
    flush(F &&writeback)
    {
        for (std::uint64_t set = 0; set < numSets_; ++set) {
            for (unsigned w = 0; w < ways_; ++w) {
                Way &way = ways_store_[set * ways_ + w];
                if (way.dirty())  // an empty way is never dirty
                    writeback(addrOf(set, way.tag()));
                way = Way{};
            }
        }
    }

    std::uint64_t numSets() const { return numSets_; }
    Bytes capacity() const { return numSets_ * ways_ * kLineSize; }

    /** @name Always-on access statistics (read by the obs layer) */
    ///@{
    std::uint64_t hitCount() const { return hits_; }
    std::uint64_t missCount() const { return misses_; }
    std::uint64_t dirtyEvictionCount() const { return dirtyEvictions_; }
    std::uint64_t ntInvalidateCount() const { return ntInvalidates_; }
    void
    resetStats()
    {
        hits_ = misses_ = dirtyEvictions_ = ntInvalidates_ = 0;
    }
    ///@}

  private:
    /** Dirty flag of a way's tag word. */
    static constexpr std::uint64_t kDirtyBit = std::uint64_t{1} << 63;
    /**
     * Tag word of an empty way (never dirty). Tags are lineIndex /
     * numSets < 2^58, so neither bit 63 nor this value is ever part
     * of a live tag.
     */
    static constexpr std::uint64_t kInvalidTag = ~kDirtyBit;

    /**
     * One way in 16 bytes: the tag word (tag, dirty flag in bit 63,
     * kInvalidTag when empty) and the LRU stamp (0 when empty; live
     * stamps start at 1 and, 64-bit, never wrap). The hit probe
     * compares tag words only.
     */
    struct Way
    {
        std::uint64_t word = kInvalidTag;
        std::uint64_t lru = 0;

        std::uint64_t tag() const { return word & ~kDirtyBit; }
        bool dirty() const { return (word & kDirtyBit) != 0; }
    };

    /** Index of the way of @p set holding @p tag, or ways_ if none. */
    unsigned
    findWay(std::uint64_t set, std::uint64_t tag) const
    {
        const Way *base = &ways_store_[set * ways_];
        unsigned w = 0;
        while (w < ways_ && base[w].tag() != tag)
            ++w;
        return w;
    }

    /**
     * One division decomposes the line index into (set, tag): the
     * compiler derives the remainder from the quotient, where separate
     * modulo and divide expressions would each pay a 64-bit divide on
     * this hottest of paths.
     */
    void
    splitAddr(Addr addr, std::uint64_t &set, std::uint64_t &tag) const
    {
        std::uint64_t idx = lineIndex(addr);
        tag = idx / numSets_;
        set = idx - tag * numSets_;
    }
    Addr
    addrOf(std::uint64_t set, std::uint64_t tag) const
    {
        return (tag * numSets_ + set) * kLineSize;
    }

    unsigned ways_;
    std::uint64_t numSets_;
    std::vector<Way> ways_store_;
    std::uint64_t lruClock_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t dirtyEvictions_ = 0;
    std::uint64_t ntInvalidates_ = 0;  //!< nontemporal-store coherence kills
};

inline Llc::Llc(const LlcParams &params)
    : ways_(params.ways ? params.ways : 1),
      numSets_(params.capacity / kLineSize / ways_)
{
    if (numSets_ == 0)
        numSets_ = 1;
    ways_store_.assign(numSets_ * ways_, Way{});
}

inline LlcResult
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

inline void
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

inline bool
Llc::resident(Addr addr) const
{
    std::uint64_t set, tag;
    splitAddr(addr, set, tag);
    return findWay(set, tag) != ways_;
}

inline void
Llc::invalidateAll()
{
    for (auto &way : ways_store_)
        way = Way{};
}

} // namespace nvsim::ref

#endif // NVSIM_TESTS_REF_STAMP_LLC_HH
