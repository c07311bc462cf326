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

#include "core/divider.hh"
#include "core/types.hh"

namespace nvsim
{

/** LLC configuration. */
struct LlcParams
{
    Bytes capacity = 33 * kMiB;
    unsigned ways = 11;  //!< at most Llc::kMaxWays
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
 * Each set keeps a dense array of 64-bit tag words and one recency
 * word: nibble r names the way at recency rank r, rank 0 the least
 * recently used. Empty ways sit at the LRU end in way-index order, so
 * nibble 0 is the victim: the first empty way, else the LRU one. A hit
 * moves its way to the top nibble; a miss rotates nibble 0 there.
 * No stamp or clock exists, so nothing can wrap.
 *
 * Only a line not seen recently pays the address split and the tag
 * probe. Take C = numSets * ways and call a *run* a sequence of
 * accesses to consecutive line indices with no other LLC state change
 * in between. Once a run is C lines long, every set holds exactly its
 * last `ways` lines from the run (C consecutive lines give a set
 * `ways` distinct lines, and LRU keeps the `ways` most recent), so
 * line i must miss and its victim is line i - C at its set's rank 0.
 * A cursor holds the run's last line as (set, tag, way) and advances
 * by increment-and-wrap. A repeat of that line hits its way and
 * changes no order. The line that any other access leaves becomes the
 * memo: an access to it hits exactly when its way still holds its
 * tag, since a way holds one line. invalidateLine (when it drops a line),
 * invalidateAll and flush close the run.
 */
class Llc
{
  public:
    /** Ways the recency word can order, one nibble each. */
    static constexpr unsigned kMaxWays = 16;

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
                const std::uint64_t word = tags_[set * ways_ + w];
                if (word & kDirtyBit)  // an empty way is never dirty
                    writeback(addrOf(set, word & ~kDirtyBit));
            }
        }
        invalidateAll();
    }

    std::uint64_t numSets() const { return numSets_; }
    Bytes capacity() const { return lines_ * kLineSize; }

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
    /** Dirty flag of a tag word. */
    static constexpr std::uint64_t kDirtyBit = std::uint64_t{1} << 63;
    /**
     * Tag word of an empty way (never dirty). Tags are lineIndex /
     * numSets < 2^58, so neither bit 63 nor this value is ever part
     * of a live tag.
     */
    static constexpr std::uint64_t kInvalidTag = ~kDirtyBit;
    /** Index of no line: neither it nor its successor is a line index. */
    static constexpr std::uint64_t kNoLine = ~std::uint64_t{0} - 1;

    /** A line and where it was: set, tag and flat way index. */
    struct Line
    {
        std::uint64_t idx = kNoLine;
        std::uint64_t set = 0;
        std::uint64_t tag = 0;
        std::uint64_t way = 0;
    };

    /** Index of the way of @p set holding @p tag, or ways_ if none. */
    unsigned
    findWay(std::uint64_t set, std::uint64_t tag) const
    {
        const std::uint64_t *base = &tags_[set * ways_];
        unsigned w = 0;
        while (w < ways_ && (base[w] & ~kDirtyBit) != tag)
            ++w;
        return w;
    }

    Addr
    addrOf(std::uint64_t set, std::uint64_t tag) const
    {
        return (tag * numSets_ + set) * kLineSize;
    }

    /** A miss inside a full run; @p dirty is the new line's flag. */
    LlcResult streamMiss(std::uint64_t dirty);

    unsigned ways_;
    std::uint64_t numSets_;
    std::uint64_t lines_;  //!< C = numSets_ * ways_
    Divider sets_;         //!< line index -> (tag, set)
    unsigned mruShift_;    //!< bit offset of the MRU nibble
    std::uint64_t identity_ = 0;  //!< recency word of an empty set
    std::vector<std::uint64_t> tags_;   //!< tag words, set-major
    std::vector<std::uint64_t> order_;  //!< recency word per set
    std::uint64_t valid_ = 0;           //!< resident lines

    /** @name The current run and the line before it */
    ///@{
    Line cur_;  //!< the run's last line; idx kNoLine when no run is open
    std::uint64_t runLen_ = 0;  //!< run length, saturating at C
    Line memo_;  //!< the line a general access last left
    ///@}

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t dirtyEvictions_ = 0;
    std::uint64_t ntInvalidates_ = 0;  //!< nontemporal-store coherence kills
};

} // namespace nvsim

#endif // NVSIM_SYS_LLC_HH
