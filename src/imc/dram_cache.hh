/**
 * @file
 * The 2LM direct-mapped DRAM cache, as reverse engineered in Section IV
 * of the paper (Table I and Figure 3), expressed as the default
 * CachePolicy ("direct_mapped_tag_ecc").
 *
 * Properties modelled:
 *  - direct mapped, 64 B lines, insert on every miss (read or write);
 *  - tags stored in the DRAM ECC bits, so one DRAM read returns data and
 *    tag together and one DRAM write updates both;
 *  - LLC reads: tag-check read; on miss the miss handler fetches the
 *    line from NVRAM, inserts it with a DRAM write, and writes the dirty
 *    victim back to NVRAM if needed;
 *  - LLC writes: the Dirty Data Optimization may elide the tag check;
 *    otherwise a tag-check read is made, and on a miss the *miss handler
 *    runs first* (insert on miss) before the data itself is written --
 *    which is why a missing LLC write costs two DRAM writes;
 *  - per-request DeviceActions reproduce Table I exactly:
 *    amplifications 1 / 3 / 4 / 2 / 4 / 5 / 1.
 *
 * The insertion decision is a protected hook (shouldInsert) so the
 * bypass policy (imc/bypass_policy.hh) can gate it on miss frequency
 * while inheriting the tags-in-ECC probe/DDO machinery unchanged.
 */

#ifndef NVSIM_IMC_DRAM_CACHE_HH
#define NVSIM_IMC_DRAM_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/logging.hh"
#include "imc/cache_policy.hh"
#include "imc/ddo.hh"
#include "mem/request.hh"

namespace nvsim
{

/** The reverse-engineered tags-in-ECC 2LM controller policy. */
class DirectMappedTagEccPolicy : public CachePolicy
{
  public:
    explicit DirectMappedTagEccPolicy(const DramCacheParams &params);

    const char *kindName() const override
    {
        return "direct_mapped_tag_ecc";
    }

    /** Handle an LLC read of the line at @p addr. */
    CacheResult read(Addr addr) override;

    /** Handle an LLC write (writeback / nontemporal store) to @p addr. */
    CacheResult write(Addr addr) override;

    /** Backward-compatible alias for the namespace-scope type. */
    using TagCorruption = nvsim::TagCorruption;

    /**
     * An uncorrectable ECC fault corrupted the in-ECC tag bits of the
     * DRAM location probed for @p addr: the controller cannot trust
     * the tag and invalidates the way (the one holding @p addr if
     * resident, else the way the probe would have replaced). The
     * caller re-runs the access, which now misses and refetches from
     * NVRAM — the extra device accesses unique to tags-in-ECC.
     */
    TagCorruption corruptTag(Addr addr) override;

    /**
     * Patrol-scrub retirement: the way backing @p frame is mapped out
     * (valid line dropped and reported, frame marked unusable). A set
     * whose every way is retired serves all traffic as NVRAM bypasses.
     */
    TagCorruption retireFrame(Addr frame) override;

    std::uint64_t retiredWays() const override { return retiredWays_; }

    /** Is the line currently resident? (introspection, no side effects) */
    bool resident(Addr addr) const override;

    /** Is the resident copy of the line dirty? */
    bool residentDirty(Addr addr) const override;

    /**
     * Drop every line, writing back nothing (used to reset state
     * between benchmark phases, like a reboot would).
     */
    void invalidateAll() override;

    std::uint64_t numSets() const override { return numSets_; }
    unsigned ways() const override { return ways_; }
    const DramCacheParams &params() const override { return params_; }
    DdoPolicy &ddo() { return *ddo_; }

    /**
     * Attach (or detach, with nullptr) a set-conflict profiler. Not
     * owned; typically the Observer's profiler, shared across channels
     * of identical geometry.
     */
    void setProfiler(obs::SetProfiler *profiler) override
    {
        profiler_ = profiler;
    }
    obs::SetProfiler *profiler() override { return profiler_; }

    /**
     * Largest tag a way can hold: the 15-bit tag field minus its
     * all-ones value, which marks an empty way. SystemConfig::validate()
     * rejects a 2LM geometry whose tags would exceed it.
     */
    static constexpr std::uint64_t kMaxTag = 0x7FFE;

  protected:
    /**
     * Handle into the structure-of-arrays line-state store: the flat
     * index set * ways + way, or kNoWay for "not found". Line state
     * is kept as parallel arrays (tag word, LRU stamp, retired) rather
     * than an array of per-way structs. The 16-bit tag word carries
     * the whole per-request state: the dirty flag in bit 0 and the tag
     * in bits 1-15, with kInvalidWord (an all-ones tag field, clean)
     * for an empty way, so there is no separate valid or dirty byte to
     * fetch. A tag is lineIndex / numSets < ways x NVRAM/DRAM per
     * channel (16 for the stock 512 GiB / 32 GiB direct-mapped
     * geometry), so 15 bits hold every configuration validate()
     * admits. Sixteen bits keep the tag array of a scaled run in the
     * host's L2 (six channels of 131,072 ways is 1.5 MiB, where 64-bit
     * words took 6 MiB), so a random probe does not pay an L3 round
     * trip. The dirty flag sits in bit 0 so that markDirty() is an OR
     * with an 8-bit immediate; bit 15 needs a 16-bit immediate, whose
     * length-changing prefix stalls the decoder on every write hit. A
     * probe, a hit and a write hit's dirty update all touch one host
     * cache line of dense tag words (32 candidate ways per line). The
     * LRU stamp is read only when choosing a victim among several
     * valid ways, and the retired sideband only once a way has been
     * retired.
     */
    using WayIdx = std::uint64_t;
    static constexpr WayIdx kNoWay = ~static_cast<WayIdx>(0);

    using TagWord = std::uint16_t;

    /** Dirty flag of a tag word. */
    static constexpr TagWord kDirtyBit = 1;

    /** Tag field of an empty way; never a live tag (see kMaxTag). */
    static constexpr std::uint64_t kInvalidTag = kMaxTag + 1;

    /** Tag word of an empty way: the kInvalidTag field, clean. */
    static constexpr TagWord kInvalidWord =
        static_cast<TagWord>(kInvalidTag << 1);

    /** Tag of way @p w, dirty flag stripped (kInvalidTag if empty). */
    std::uint64_t tagAt(WayIdx w) const { return wayTag_[w] >> 1; }
    bool isDirty(WayIdx w) const { return (wayTag_[w] & kDirtyBit) != 0; }
    void markDirty(WayIdx w) { wayTag_[w] |= kDirtyBit; }
    bool wayValid(WayIdx w) const { return tagAt(w) != kInvalidTag; }

    /**
     * Insertion gate consulted on every miss. The stock controller
     * always inserts ("our best guess is that the memory controller
     * always inserts on a miss"); selective-insert policies override.
     * Called exactly once per missing request, so overrides may update
     * miss-frequency state.
     */
    virtual bool shouldInsert(Addr addr, MemRequestKind kind);

    /**
     * Serve a missing read from NVRAM without inserting (bypass): one
     * NVRAM demand read, cache untouched.
     */
    void bypassRead(Addr addr, CacheResult &result);

    /**
     * Send a missing write straight to NVRAM without inserting: the
     * demand data rides in the writeback fields (write-no-allocate and
     * the bypass policy share this encoding).
     */
    void bypassWrite(Addr addr, CacheResult &result);

    std::uint64_t setOf(Addr addr) const;
    std::uint64_t tagOf(Addr addr) const;
    Addr addrOf(std::uint64_t set, std::uint64_t tag) const;

    /**
     * Decompose a line index into (set, tag) with at most one divide.
     * The common geometries (power-of-two set counts) take the
     * shift/mask path; every access pays this split, so it must not
     * cost two 64-bit divisions as separate setOf()/tagOf() calls do.
     */
    void
    splitAddr(Addr addr, std::uint64_t &set, std::uint64_t &tag) const
    {
        std::uint64_t idx = lineIndex(addr);
        if (setShift_ >= 0) {
            set = idx & setMask_;
            tag = idx >> setShift_;
        } else {
            tag = idx / numSets_;
            set = idx - tag * numSets_;
        }
    }

    /** Find the way holding @p tag in @p set, or kNoWay. */
    WayIdx find(std::uint64_t set, std::uint64_t tag) const;

    /**
     * LRU victim among @p set's serviceable ways. Retired ways are
     * skipped; callers must check setRetired() first (the precondition
     * is that at least one way is serviceable).
     */
    WayIdx victimWay(std::uint64_t set) const;

    /** Every way of @p set is retired (forced-bypass set). */
    bool
    setRetired(std::uint64_t set) const
    {
        if (retiredWays_ == 0)
            return false;  // keep the maintenance-off path branch-cheap
        const std::uint8_t *base = &wayRetired_[set * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (!base[w])
                return false;
        }
        return true;
    }

    /**
     * Stamp @p w most-recently-used. A direct-mapped cache has no
     * replacement choice, so the stamp (and its extra cache-line
     * store on every hit) is skipped entirely for ways == 1. The
     * 32-bit clock never wraps: before it would, renumberLru()
     * compresses the live stamps.
     */
    void
    touchLru(WayIdx w)
    {
        if (ways_ > 1) {
            if (lruClock_ == ~std::uint32_t{0})
                renumberLru();
            wayLru_[w] = ++lruClock_;
        }
    }

    /**
     * Rank-compress each set's valid stamps to 1..ways, keeping their
     * order, and restart the clock at ways_, above every rank. Victim
     * choice only compares stamps within a set, so it is unchanged.
     */
    void renumberLru();

    /** Reset one way's state to empty (all fields, retirement included). */
    void
    clearWay(WayIdx w)
    {
        wayTag_[w] = kInvalidWord;
        if (ways_ > 1)
            wayLru_[w] = 0;
        if (!wayRetired_.empty())
            wayRetired_[w] = 0;
    }

    /**
     * Make @p w hold @p tag, clean, stamped most-recently-used, and
     * tell the DDO tracker the line at @p addr is resident. A tag
     * above kMaxTag would alias an empty way or another tag, so it
     * panics instead.
     */
    void
    insertTag(WayIdx w, std::uint64_t tag, Addr addr)
    {
        if (tag > kMaxTag)
            panic("2LM tag %#llx of line %#llx exceeds the %#llx the "
                  "16-bit tag word holds",
                  static_cast<unsigned long long>(tag),
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(kMaxTag));
        wayTag_[w] = static_cast<TagWord>(tag << 1);  // valid and clean
        touchLru(w);
        ddo_->noteInsert(lineBase(addr));
    }

    /**
     * Make room in @p set by evicting @p victim (a serviceable way,
     * from victimWay()): a valid dirty line is written back to NVRAM.
     * Sets @p result's outcome and writeback fields.
     */
    void evict(std::uint64_t set, WayIdx victim, CacheResult &result);

    /**
     * Run the Figure 3 miss handler: evict (writeback if dirty), fetch
     * the requested line from NVRAM and insert it clean. Updates
     * @p result's actions, outcome, victim and fill fields.
     */
    WayIdx missHandler(Addr addr, std::uint64_t set, std::uint64_t tag,
                       CacheResult &result);

    DramCacheParams params_;
    unsigned ways_;
    std::uint64_t numSets_;
    int setShift_ = -1;          //!< log2(numSets_) when a power of two
    std::uint64_t setMask_ = 0;  //!< numSets_ - 1 when a power of two
    // Structure-of-arrays line state, numSets_ * ways_ entries each;
    // see WayIdx for the layout rationale. A direct-mapped cache never
    // reads a stamp, so wayLru_ stays empty for ways == 1; wayRetired_
    // stays empty until the first retireFrame().
    std::vector<TagWord> wayTag_;
    std::vector<std::uint32_t> wayLru_;
    std::vector<std::uint8_t> wayRetired_;
    std::uint64_t retiredWays_ = 0;
    std::uint32_t lruClock_ = 0;
    std::unique_ptr<DdoPolicy> ddo_;
    obs::SetProfiler *profiler_ = nullptr;  //!< optional, not owned
};

/**
 * Historical name: the model predates the policy framework, and the
 * directed tests/benches that drive the cache without a channel still
 * use it.
 */
using DramCache = DirectMappedTagEccPolicy;

} // namespace nvsim

#endif // NVSIM_IMC_DRAM_CACHE_HH
