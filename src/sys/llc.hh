/**
 * @file
 * Last-level cache model.
 *
 * A set-associative writeback LLC with LRU replacement. Loads and
 * standard stores (which perform a read-for-ownership) allocate lines;
 * dirty evictions become LLC writes to the IMC. Nontemporal stores
 * bypass the LLC entirely — the paper leans on them to expose raw IMC
 * behavior — but must invalidate any cached copy to stay coherent.
 */

#ifndef NVSIM_SYS_LLC_HH
#define NVSIM_SYS_LLC_HH

#include <cstdint>
#include <vector>

#include "core/types.hh"

namespace nvsim
{

/** LLC configuration. */
struct LlcParams
{
    Bytes capacity = 33 * kMiB;
    unsigned ways = 11;
};

/** What one LLC access produced. */
struct LlcResult
{
    bool hit = false;
    bool missed = false;          //!< an LLC read must go downstream
    bool evictedDirty = false;    //!< a dirty victim must be written back
    Addr victim = 0;              //!< line address of the dirty victim
};

/**
 * Set-associative writeback LLC.
 *
 * Streaming misses are O(1). Take C = numSets * ways and call a *run*
 * a sequence of accesses to consecutive line indices with no other
 * LLC state change in between. C consecutive lines put exactly `ways`
 * lines in each set, all distinct, and LRU keeps a set's `ways` most
 * recently used distinct lines; so once a run is C lines long every
 * set holds exactly its last `ways` lines from the run. Line i of the
 * run then maps to the set of line i - C with a tag `ways` higher: it
 * must miss, and its victim is the set's oldest line, i - C, which
 * holds the lowest stamp. The LLC keeps a ring of the C flat way
 * indices the run's lines went into; line i takes over the slot of
 * line i - C, so the ring never changes once full. A miss in a full
 * run therefore costs no address split, no probe and no victim scan,
 * and its stamp, dirty bit, statistics and victim address are exactly
 * those the general path would produce. Repeating the run's last line
 * (a read-modify-write, or several words of one line) hits the way
 * the ring names last; the line is already its set's most recent, so
 * the repeat changes no set's LRU order and the run goes on. Any other
 * access starts a new run; invalidateLine (when it drops a line),
 * invalidateAll and flush end the current one.
 */
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
        runNext_ = kNoRun;
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

    /** runNext_ when no run is open: no line index reaches it. */
    static constexpr std::uint64_t kNoRun = ~std::uint64_t{0};

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
     * Decompose a line index into (set, tag): shift and mask for a
     * power-of-two set count, else one division (the compiler derives
     * the remainder from the quotient).
     */
    void
    splitIndex(std::uint64_t idx, std::uint64_t &set,
               std::uint64_t &tag) const
    {
        if (setShift_ >= 0) {
            set = idx & setMask_;
            tag = idx >> setShift_;
        } else {
            tag = idx / numSets_;
            set = idx - tag * numSets_;
        }
    }
    void
    splitAddr(Addr addr, std::uint64_t &set, std::uint64_t &tag) const
    {
        splitIndex(lineIndex(addr), set, tag);
    }
    Addr
    addrOf(std::uint64_t set, std::uint64_t tag) const
    {
        return (tag * numSets_ + set) * kLineSize;
    }

    /** A miss inside a full run (see the class comment). */
    LlcResult streamMiss(std::uint64_t idx, bool is_store);
    /** A repeat of the run's last line: a hit (see the class comment). */
    LlcResult repeatHit(bool is_store);

    unsigned ways_;
    std::uint64_t numSets_;
    int setShift_ = -1;          //!< log2(numSets_) when a power of two
    std::uint64_t setMask_ = 0;  //!< numSets_ - 1 when a power of two
    std::vector<Way> ways_store_;
    std::uint64_t lruClock_ = 0;

    /** @name The current run of consecutive lines */
    ///@{
    std::vector<std::uint32_t> runWays_;  //!< C flat way indices, a ring
    std::uint64_t runNext_ = kNoRun;  //!< line index that extends the run
    std::uint64_t runLen_ = 0;        //!< run length, saturating at C
    std::uint64_t runPos_ = 0;        //!< next ring slot
    ///@}

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t dirtyEvictions_ = 0;
    std::uint64_t ntInvalidates_ = 0;  //!< nontemporal-store coherence kills
};

} // namespace nvsim

#endif // NVSIM_SYS_LLC_HH
