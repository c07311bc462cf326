/**
 * @file
 * Set-associative DRAM cache with tags held in controller SRAM
 * ("sram_tag_set_assoc").
 *
 * The paper's Section IV pins much of the 2LM amplification on where
 * the tags live: with tags in the DRAM ECC bits, every lookup costs a
 * DRAM read even when the answer is "miss", and every store needs a
 * tag-check read unless DDO can vouch for residency. This policy
 * models the classic alternative the paper's critique implies: the
 * controller keeps the full tag array in on-die SRAM, so
 *
 *  - lookups are free in device traffic (no tag-probe DRAM read, no
 *    DDO needed — the SRAM answer is always available);
 *  - a read hit is exactly one DRAM data read, a write hit exactly one
 *    DRAM data write;
 *  - a missing write merges the demand data into the fill, costing one
 *    NVRAM fetch plus a single DRAM write (the stock policy pays a
 *    tag probe plus two DRAM writes);
 *  - associativity (DramCacheParams::ways) and within-set replacement
 *    (CachePolicyConfig::replacement, "lru" or "fifo") are knobs, not
 *    fixed by an ECC-bit layout.
 *
 * The cost the model does not charge for — megabytes of SRAM for a
 * 32 GiB cache's tags — is of course the reason real 2LM does not do
 * this; see DESIGN.md section 9.
 */

#ifndef NVSIM_IMC_SRAM_TAG_POLICY_HH
#define NVSIM_IMC_SRAM_TAG_POLICY_HH

#include "imc/dram_cache.hh"

namespace nvsim
{

/** Set-associative, SRAM-tag policy: no device reads for tag checks. */
class SramTagSetAssocPolicy : public DirectMappedTagEccPolicy
{
  public:
    SramTagSetAssocPolicy(const DramCacheParams &params,
                          const CachePolicyConfig &config);

    const char *kindName() const override { return "sram_tag_set_assoc"; }

    CacheResult read(Addr addr) override;
    CacheResult write(Addr addr) override;

    /** Read hit: DRAM data read. Read miss: NVRAM fetch only (the SRAM
     *  lookup is off the device critical path). Writes post behind the
     *  DRAM (or, bypassing, NVRAM) write accept. */
    double demandLatency(MemRequestKind kind, const CacheResult &cr,
                         const DeviceLatencies &lat) const override;

    /** One NVRAM fetch per miss; no serial tag-probe DRAM read. */
    double missServiceTime(const DeviceLatencies &lat) const override;

    CausalBreakdown breakdown(MemRequestKind kind, const CacheResult &cr,
                              const DeviceLatencies &lat) const override;

    bool lruReplacement() const { return lru_; }

  private:
    /** Evict the set's victim (writeback if dirty), fetch the line from
     *  NVRAM and install the tag. Unlike the base missHandler this does
     *  NOT count the insert DRAM write — read and write misses account
     *  for it differently (writes merge it with the demand data). */
    WayIdx fill(Addr addr, std::uint64_t set, std::uint64_t tag,
                CacheResult &result);

    bool lru_;  //!< true: LRU within the set; false: FIFO
};

} // namespace nvsim

#endif // NVSIM_IMC_SRAM_TAG_POLICY_HH
