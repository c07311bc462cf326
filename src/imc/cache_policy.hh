/**
 * @file
 * Pluggable DRAM-cache policy framework.
 *
 * The paper's core claim is not that DRAM caches are bad, but that the
 * *specific* 2LM policy choices — direct mapped, tags in the DRAM ECC
 * bits, insert on every miss, DDO — destroy NVRAM bandwidth. To explore
 * the counterfactual designs the paper argues against (Banshee-style
 * selective insertion, SRAM-tag set-associative organizations), the
 * miss-handler/tag/insertion logic sits behind this interface.
 *
 * A policy decomposes one LLC request exactly as Figure 3 does:
 * lookup -> {hit?, victim dirty?, device accesses}. The CacheResult it
 * returns carries the outcome (tag statistics), the DeviceActions (the
 * Table I row for that request), and the NVRAM lines the miss handler
 * touched, so the ChannelController can apply the traffic to the
 * devices without knowing which policy produced it.
 *
 * Policies are constructed by name through CachePolicyRegistry, so
 * SystemConfig, benches and tests select one declaratively
 * ("direct_mapped_tag_ecc", "sram_tag_set_assoc",
 * "bypass_selective_insert").
 */

#ifndef NVSIM_IMC_CACHE_POLICY_HH
#define NVSIM_IMC_CACHE_POLICY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "imc/ddo.hh"
#include "mem/request.hh"

namespace nvsim
{

/** DRAM cache geometry/behavior shared by every policy (one channel). */
struct DramCacheParams
{
    Bytes capacity = 32 * kGiB;  //!< DRAM DIMM capacity on this channel
    DdoConfig ddo;
    /**
     * Associativity. The real hardware is direct mapped (1); higher
     * values exist for the "future hardware" ablations and use LRU
     * replacement within the set (the SRAM-tag policy also supports
     * FIFO, see CachePolicyConfig::replacement).
     */
    unsigned ways = 1;
    /**
     * Insert-on-miss for LLC *writes*. The real hardware always
     * inserts ("our best guess is that the memory controller always
     * inserts on a miss"), which costs an NVRAM read plus two DRAM
     * writes per missing store. Setting this false models the
     * write-no-allocate alternative the paper's critique implies:
     * missing LLC writes go straight to NVRAM (tag check + NVRAM
     * write, amplification 2) and leave the cache untouched.
     */
    bool insertOnWriteMiss = true;
};

/**
 * Policy selection plus the knobs that are meaningful only to specific
 * policies. Carried by SystemConfig/ChannelParams; policies ignore the
 * knobs they do not use.
 */
struct CachePolicyConfig
{
    /** Registry key; see CachePolicyRegistry::names(). */
    std::string kind = "direct_mapped_tag_ecc";
    /** sram_tag_set_assoc: within-set replacement, "lru" or "fifo". */
    std::string replacement = "lru";
    /**
     * bypass_selective_insert: number of misses a line must accumulate
     * before the miss handler inserts it (1 = insert on every miss,
     * i.e. the stock behavior).
     */
    unsigned insertThreshold = 2;
    /** bypass_selective_insert: miss-frequency table entries. */
    std::uint32_t counterEntries = 1u << 16;

    /** Reject unknown kinds/replacements and nonsensical knobs. */
    void validate() const;
};

/**
 * Result of one cache access: the outcome (tag statistics), the device
 * actions (Table I row counts), and the victim address when a dirty
 * line was written back to NVRAM.
 */
struct CacheResult
{
    CacheOutcome outcome = CacheOutcome::Uncached;
    DeviceActions actions;
    Addr victim = 0;          //!< valid iff wroteBack
    bool wroteBack = false;   //!< dirty victim (or bypassed demand
                              //!< store) written to NVRAM
    Addr fill = 0;            //!< NVRAM line fetched on a miss
    bool filled = false;      //!< miss handler ran an NVRAM fetch
    /** The miss was served from NVRAM without inserting the line
     *  (bypass policies); filled is still set for the demand fetch. */
    bool bypassed = false;
    /** The tag lookup was answered by controller SRAM, so no DRAM read
     *  was spent on it (sram_tag_set_assoc). */
    bool tagsInSram = false;
};

/** Device latencies a policy needs to attribute time per access. */
struct DeviceLatencies
{
    double dram = 0;        //!< DRAM load-to-use seconds
    double nvramRead = 0;   //!< NVRAM demand read load-to-use seconds
    double nvramWrite = 0;  //!< NVRAM write accept seconds
};

/**
 * Abstract DRAM-cache policy: everything the ChannelController needs
 * from "the cache" for one 64 B LLC request. Implementations are
 * single-channel and single-threaded, like the controller that owns
 * them.
 */
class CachePolicy
{
  public:
    virtual ~CachePolicy() = default;

    /** Registry key this policy was constructed under. */
    virtual const char *kindName() const = 0;

    /** Handle an LLC read of the line at @p addr. */
    virtual CacheResult read(Addr addr) = 0;

    /** Handle an LLC write (writeback / nontemporal store) to @p addr. */
    virtual CacheResult write(Addr addr) = 0;

    /** Is the line currently resident? (introspection, no side effects) */
    virtual bool resident(Addr addr) const = 0;

    /** Is the resident copy of the line dirty? */
    virtual bool residentDirty(Addr addr) const = 0;

    /**
     * Drop every line, writing back nothing (used to reset state
     * between benchmark phases, like a reboot would).
     */
    virtual void invalidateAll() = 0;

    virtual std::uint64_t numSets() const = 0;
    virtual unsigned ways() const = 0;
    virtual const DramCacheParams &params() const = 0;

    /**
     * Demand latency of one request under this policy: which device
     * round trips are serial on the load-to-use (or write-accept)
     * path. The default models the tags-in-ECC flow: reads pay the
     * DRAM probe, plus the NVRAM fetch on a miss; writes are posted
     * behind the tag-check read (DDO writes behind the NVRAM accept).
     */
    virtual double demandLatency(MemRequestKind kind,
                                 const CacheResult &cr,
                                 const DeviceLatencies &lat) const;

    /**
     * Miss-handler entry occupancy per miss (seconds): the serial
     * device work one outstanding miss holds its entry for. Default:
     * tag-check DRAM read followed by the NVRAM line fetch.
     */
    virtual double missServiceTime(const DeviceLatencies &lat) const;

    /**
     * Decompose @p cr into ordered per-device blame spans — one
     * CauseSpan per device access, so span count always equals
     * cr.actions.total(). The default implements the tags-in-ECC
     * Figure 3 flow; policies with different flows override.
     */
    virtual CausalBreakdown breakdown(MemRequestKind kind,
                                      const CacheResult &cr,
                                      const DeviceLatencies &lat) const;
};

/**
 * Tags-in-ECC Figure 3 blame decomposition (the default policy flow),
 * shared by CachePolicy::breakdown and the directed-request tools that
 * drive caches without a channel (bench_table1_amplification).
 */
CausalBreakdown tagEccBreakdown(MemRequestKind kind, const CacheResult &cr,
                                const DeviceLatencies &lat);

/**
 * String-keyed factory registry. Benches, tests and SystemConfig
 * construct policies by name so a sweep can iterate names() without
 * compiling against every implementation.
 */
class CachePolicyRegistry
{
  public:
    using Factory = std::unique_ptr<CachePolicy> (*)(
        const DramCacheParams &, const CachePolicyConfig &);

    /** The process-wide registry (built-ins pre-registered). */
    static CachePolicyRegistry &instance();

    /** Register @p kind; re-registration of a known kind is fatal. */
    void add(const std::string &kind, const std::string &description,
             Factory factory);

    bool known(const std::string &kind) const;

    /** Registered kinds, in registration order. */
    std::vector<std::string> names() const;

    /** One-line description of @p kind (empty if unknown). */
    std::string description(const std::string &kind) const;

    /**
     * Construct @p config.kind. Unknown kinds are fatal, listing the
     * registered names — a typo'd policy must never silently fall back
     * to the default.
     */
    std::unique_ptr<CachePolicy> create(
        const DramCacheParams &params,
        const CachePolicyConfig &config) const;

  private:
    struct Entry
    {
        std::string kind;
        std::string description;
        Factory factory;
    };
    std::vector<Entry> entries_;

    const Entry *find(const std::string &kind) const;
};

/** Shorthand for CachePolicyRegistry::instance().create(...). */
std::unique_ptr<CachePolicy> makeCachePolicy(
    const DramCacheParams &params, const CachePolicyConfig &config);

} // namespace nvsim

#endif // NVSIM_IMC_CACHE_POLICY_HH
