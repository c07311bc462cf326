/**
 * @file
 * Whole-system configuration.
 *
 * Defaults reproduce the paper's test platform (Figure 1): a Cascade
 * Lake socket with 2 IMCs x 3 channels, each channel holding a 32 GiB
 * DDR4 DIMM and a 512 GiB Optane DC DIMM; 24 cores; a 33 MB LLC. All
 * six NVRAM DIMMs form one interleaved set (4 KiB granularity).
 *
 * A single `scale` divisor shrinks every *capacity* (DRAM, NVRAM, LLC,
 * and therefore every workload sized relative to them) while leaving
 * bandwidths and latencies untouched. Since every effect the paper
 * reports is a capacity-ratio effect (array vs cache size, conflicts,
 * buffer entries vs streams), scaled runs preserve the result shapes
 * while simulating in seconds.
 */

#ifndef NVSIM_SYS_CONFIG_HH
#define NVSIM_SYS_CONFIG_HH

#include "imc/channel.hh"

namespace nvsim
{

/** Full system configuration. */
struct SystemConfig
{
    /** Sockets used; 1 for microbenchmarks/CNNs, 2 for graph runs. */
    unsigned sockets = 1;
    /** Memory channels per socket (2 IMCs x 3 channels). */
    unsigned channelsPerSocket = 6;
    /** Physical cores per socket. */
    unsigned coresPerSocket = 24;

    /** Capacity scale divisor (1024 => 192 GiB DRAM becomes 192 MiB). */
    std::uint64_t scale = 1024;

    MemoryMode mode = MemoryMode::TwoLm;

    /** Per-DIMM parameters (unscaled; capacities divided by scale). */
    DramParams dram;
    NvramParams nvram;

    /**
     * DRAM refresh (JSON block `maintenance.refresh`). Off by default,
     * which is behavior-neutral: no timing change, bit-identical
     * output.
     */
    MaintenanceConfig maintenance;

    /**
     * Queued channel controller (read queue / WPQ / banks behind a
     * ChannelScheduler). The default "analytic" scheduler is the
     * degenerate pass-through: no queues are built and output is
     * byte-identical to the pre-queue model.
     */
    ControllerConfig controller;

    /** 2LM cache options. */
    DdoConfig ddo;
    unsigned cacheWays = 1;
    bool insertOnWriteMiss = true;
    unsigned missHandlerEntries = 24;
    double busBandwidth = 21.3e9;
    /**
     * 2LM cache policy selection + policy knobs; constructed by name
     * through CachePolicyRegistry. Defaults to the reverse-engineered
     * tags-in-ECC controller.
     */
    CachePolicyConfig policy;

    /** LLC (unscaled capacity; divided by scale). */
    Bytes llcCapacity = 33 * kMiB;
    unsigned llcWays = 11;
    double llcHitLatency = 20e-9;

    /**
     * Demand-side model: per-thread memory-level parallelism (peak
     * outstanding 64 B lines) and per-thread issue bandwidth caps.
     */
    unsigned mlp = 18;
    double threadIssueBandwidth = 12e9;     //!< loads / RFOs per thread
    double threadNtStoreBandwidth = 4.5e9;  //!< nontemporal stores

    /** NVRAM interleave granularity across channels. */
    Bytes interleaveGranularity = 4 * kKiB;

    /**
     * DMA copy engines (the hardware-software co-design direction of
     * Section VII-B). Copies issued through MemorySystem::dmaCopy()
     * consume device bandwidth but no CPU issue slots, so they overlap
     * with compute. Current-systems defaults are modest: the paper
     * notes existing engines "are designed for I/O data movement and
     * not high bandwidth movement between memory technologies".
     */
    unsigned dmaEngines = 4;
    double dmaEngineBandwidth = 8e9;  //!< per engine, bytes/second

    /**
     * Demand bytes per timing epoch (scaled). Smaller epochs give finer
     * trace resolution at slightly more solver overhead.
     */
    Bytes epochBytes = 2 * kMiB;

    /**
     * Virtual-to-physical page mapping. With scatterPages the OS
     * assigns physical frames first-touch in pseudo-random order, as
     * demand paging does on a busy machine. Because the 2LM cache
     * indexes physical addresses, scattered pages turn contiguous
     * virtual working sets into conflict-prone ones — a large part of
     * why the direct-mapped cache's "inflexibility" (the paper's first
     * key limitation) bites real applications. The paper's
     * microbenchmarks dodge this deliberately with 1 GiB hugepages;
     * its application runs cannot. pageBytes is the unscaled OS page
     * size (2 MiB hugepages by default, as the graph runs configure).
     */
    bool scatterPages = false;
    Bytes pageBytes = 2 * kMiB;
    std::uint64_t pageSeed = 1;

    /** Scaled page size (floored at the channel interleave granule). */
    Bytes
    scaledPageBytes() const
    {
        Bytes scaled = pageBytes / scale;
        return scaled < interleaveGranularity ? interleaveGranularity
                                              : scaled;
    }

    /** --- derived helpers (scaled) --- */

    unsigned totalChannels() const { return sockets * channelsPerSocket; }
    unsigned totalCores() const { return sockets * coresPerSocket; }

    Bytes scaledDramPerDimm() const { return dram.capacity / scale; }
    Bytes scaledNvramPerDimm() const { return nvram.capacity / scale; }
    Bytes scaledLlc() const;

    /** Total DRAM across all channels (the 2LM cache size). */
    Bytes
    dramTotal() const
    {
        return scaledDramPerDimm() * totalChannels();
    }

    /** Total NVRAM across all channels. */
    Bytes
    nvramTotal() const
    {
        return scaledNvramPerDimm() * totalChannels();
    }

    /** Per-channel parameters with scaling and DDO sizing applied. */
    ChannelParams channelParams() const;

    /** Validate invariants; fatal() on nonsense. */
    void validate() const;

    /**
     * Serialize every user-settable knob as JSON (the same key set
     * fromJson accepts), so a config can be captured, edited and fed
     * back via --config=.
     */
    std::string toJson() const;

    /**
     * Parse a config from JSON text / a JSON file. Starts from the
     * defaults, so a config file only states what it changes. Unknown
     * keys, malformed JSON and type mismatches are fatal — a typo'd
     * knob must never silently fall back to its default.
     */
    static SystemConfig fromJson(const std::string &text);
    static SystemConfig fromJsonFile(const std::string &path);
};

} // namespace nvsim

#endif // NVSIM_SYS_CONFIG_HH
