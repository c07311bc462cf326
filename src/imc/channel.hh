/**
 * @file
 * Channel controller: one memory channel holding a DRAM DIMM and an
 * NVRAM DIMM behind the same bus, as on Cascade Lake (Figure 1 of the
 * paper: 2 sockets x 2 IMCs x 3 channels, each channel populated with a
 * 32 GiB DDR4 DIMM and a 512 GiB Optane DIMM).
 *
 * In 2LM mode the DRAM DIMM is the hardware-managed cache in front of
 * the NVRAM DIMM; in 1LM (app direct) mode both DIMMs are directly
 * addressable and requests carry the pool they target.
 */

#ifndef NVSIM_IMC_CHANNEL_HH
#define NVSIM_IMC_CHANNEL_HH

#include <cstdint>
#include <memory>

#include "fault/fault.hh"
#include "imc/cache_policy.hh"
#include "imc/counters.hh"
#include "imc/scheduler.hh"
#include "imc/transaction.hh"
#include "mem/dram.hh"
#include "mem/maintenance/maintenance.hh"
#include "mem/nvram.hh"
#include "mem/request.hh"

namespace nvsim
{

namespace obs
{
class Group;
} // namespace obs

/** Memory-system operating mode. */
enum class MemoryMode : std::uint8_t {
    OneLm,  //!< app direct: DRAM and NVRAM separately addressable
    TwoLm,  //!< memory mode: DRAM is a transparent cache for NVRAM
};

const char *memoryModeName(MemoryMode mode);

/** Configuration of one channel. */
struct ChannelParams
{
    DramParams dram;
    NvramParams nvram;
    DdoConfig ddo;
    unsigned cacheWays = 1;
    bool insertOnWriteMiss = true;
    /** Cache policy selection + policy-specific knobs (2LM only). */
    CachePolicyConfig policy;
    /** DDR4 bus bandwidth shared by DRAM and DDR-T transactions. */
    double busBandwidth = 21.3e9;
    /** Concurrent 2LM miss handler entries (MSHR-like). */
    unsigned missHandlerEntries = 24;
    /** Fault-injection plan (zero rates: behavior-neutral). */
    FaultConfig fault;
    /** DRAM self-management (refresh/scrub/RowHammer; all-off default). */
    MaintenanceConfig maintenance;
    /** Queued-controller selection and geometry ("analytic" = off). */
    ControllerConfig controller;
    /** Index of this channel in the system (fault-stream derivation). */
    unsigned index = 0;
};

/**
 * Fault side effects of one request, reported upward so the
 * MemorySystem can track poison at physical addresses and feed the
 * FaultLog. All-zero when no fault fired.
 */
struct RequestFaults
{
    std::uint32_t retries = 0;       //!< retry rounds spent (all causes)
    std::uint32_t correctable = 0;   //!< correctable errors observed
    std::uint32_t uncorrectable = 0; //!< uncorrectable errors observed
    /** The requested line's data was lost (UC media or DRAM error). */
    bool demandPoisoned = false;
    /** A different line (writeback victim / dropped dirty line) lost
     *  its data; its channel-local address is victimLine. */
    bool victimPoisoned = false;
    Addr victimLine = 0;
    /** DRAM ECC faults that corrupted in-ECC 2LM tags. A demand tag
     *  fault and a scrub-found UE can land in one request, so these
     *  are counts, not flags. */
    std::uint32_t tagEccInvalidates = 0;
    /** Of the uncorrectable errors, how many were 1LM DRAM data
     *  faults (the rest are NVRAM media). */
    std::uint32_t dramUncorrectable = 0;
    /** Frames the scrub retirement ladder mapped out during this
     *  request; retiredLine is the channel-local frame address of the
     *  last one. */
    std::uint32_t linesRetired = 0;
    Addr retiredLine = 0;
    /** RowHammer targeted-refresh mitigations fired. */
    std::uint32_t targetedRefreshes = 0;

    bool
    any() const
    {
        return retries || correctable || uncorrectable ||
               demandPoisoned || victimPoisoned || tagEccInvalidates ||
               linesRetired || targetedRefreshes;
    }
};

/** One request's timing contribution, returned to the caller. */
struct AccessResult
{
    CacheOutcome outcome = CacheOutcome::Uncached;
    DeviceActions actions;
    double latency = 0;  //!< load-to-use seconds for demand reads
    RequestFaults fault; //!< injected-fault side effects, if any
    /** Per-access blame spans; filled only when MemRequest::traced. */
    CausalBreakdown breakdown;
};

/**
 * Derive the ordered blame spans for one tags-in-ECC 2LM cache access:
 * which Figure 3 steps ran, on which device, at the device's nominal
 * latency. Span count always equals CacheResult::actions.total().
 * Convenience wrapper over tagEccBreakdown for tools that drive
 * DramCache directly (bench_table1_amplification); the channel's
 * traced path asks its CachePolicy instead, so non-default policies
 * blame their own flows.
 */
CausalBreakdown causalBreakdown2lm(MemRequestKind kind,
                                   const CacheResult &cr,
                                   const ChannelParams &params);

/** The DeviceLatencies slice of a channel's parameters. */
DeviceLatencies deviceLatencies(const ChannelParams &params);

/** Per-epoch traffic summary of a channel, for the bandwidth solver. */
struct ChannelEpoch
{
    DramEpoch dram;
    NvramEpoch nvram;
    std::uint64_t misses = 0;  //!< 2LM miss handler activations
    /** Targeted-refresh seconds the banks lost this epoch. */
    double maintTime = 0;
};

/** A memory channel with its controller logic. */
class ChannelController
{
  public:
    ChannelController(const ChannelParams &params, MemoryMode mode);

    /**
     * Movable (the MemorySystem stores channels in a vector); the
     * NvramDevice's fault-plan pointer is re-wired on move.
     */
    ChannelController(ChannelController &&o) noexcept;
    ChannelController &operator=(ChannelController &&) = delete;
    ChannelController(const ChannelController &) = delete;
    ChannelController &operator=(const ChannelController &) = delete;

    /**
     * Handle one 64 B LLC request.
     * @param req   the request (line-aligned address)
     * @param pool  in 1LM mode, the pool backing the address; ignored
     *              in 2LM mode (everything is NVRAM behind the cache)
     */
    AccessResult handle(const MemRequest &req, MemPool pool);

    /** @name Batched fast path
     * Lean demand entry points used by MemorySystem::submit() when
     * no observer is attached and the fault plan is disabled: the same
     * cache/device state transitions and counter updates as handle(),
     * with none of the AccessResult, causal-breakdown or fault
     * plumbing. Each returns the request's demand latency in seconds.
     */
    ///@{
    /** One 64 B request (channel-local, line-aligned address). */
    double handleFast(MemRequestKind kind, Addr addr,
                      std::uint16_t thread, MemPool pool);

    /**
     * 1LM only: @p lines consecutive 64 B requests of one kind to one
     * pool, batched through the device bulk paths. Returns the demand
     * latency of each (identical) line.
     */
    double handleFastRun1lm(MemRequestKind kind, Addr addr,
                            std::uint64_t lines, std::uint16_t thread,
                            MemPool pool);
    ///@}

    /** @name Queued transaction surface
     * Active when the `controller` config selects a real scheduler
     * (anything but "analytic"). The MemorySystem computes each
     * request's analytic service component through the cache-policy
     * seam as usual, then enqueues it here; latency emerges from
     * queue/bank/bus occupancy and is reported through the completion
     * handler as a CompletionInfo. With the degenerate "analytic"
     * scheduler no queue exists and these are inert: willAccept()
     * always true, tick()/drainQueues() no-ops, enqueue() fatal.
     */
    ///@{
    /** Is a real queue engine in the path? */
    bool queuedMode() const { return txq_ != nullptr; }

    /** Backpressure probe for @p kind's queue. */
    bool willAccept(TransactionKind kind) const;

    /** Hand one transaction to the queue engine (queued mode only). */
    void enqueue(const Transaction &tx);

    /** Service queued transactions issuing no later than @p until. */
    void tick(double until);

    /**
     * Epoch barrier: service everything queued, fold the engine's
     * statistics into the perf counters (queueWaitNs, bankConflicts,
     * rowBufferHits, writeDrains) and reset the epoch-relative clock.
     * Runs on the merging thread, like noteMaintenanceEpoch.
     */
    void drainQueues();

    /** Completion callback; fires once per transaction, issue order. */
    void setCompletionHandler(CompletionHandler handler);

    /** The queue engine, for tests/stats (nullptr when analytic). */
    const ChannelTxQueue *txQueue() const { return txq_.get(); }
    ///@}

    /** Quiesce: flush NVRAM write buffers. */
    void drainBuffers();

    /** Collect and reset this epoch's traffic. */
    ChannelEpoch drainEpoch();

    /**
     * Wall-clock seconds the channel's resources need to move an
     * epoch's traffic: the max of the bus time, the NVRAM media time
     * (with write-stream contention), and the miss handler occupancy.
     */
    double epochTime(const ChannelEpoch &epoch) const;

    /**
     * Feed the thermal-throttle automaton one epoch observation: the
     * epoch's drained traffic and its wall-clock duration. Counts the
     * epoch as throttled if the DIMM is (still) engaged afterwards.
     * No-op unless throttling is configured.
     */
    ThrottleState::Transition noteEpochDuration(const ChannelEpoch &epoch,
                                                double dt);

    /** Current NVRAM write-bandwidth throttle multiplier (1.0 = none). */
    double throttleFactor() const { return throttle_.factor(); }
    bool throttled() const { return throttle_.engaged(); }

    /**
     * Close the maintenance epoch: issue the REF commands @p dt covers
     * (tREFI accounting), advance the RowHammer tREFW window, and book
     * the epoch's refresh/scrub/targeted-refresh time into the
     * maintenanceStallNs counter. No-op when maintenance is off.
     */
    void noteMaintenanceEpoch(const ChannelEpoch &epoch, double dt);

    const MaintenanceEngine &maintenance() const { return maint_; }

    const FaultPlan &faultPlan() const { return faultPlan_; }

    PerfCounters &counters() { return counters_; }
    const PerfCounters &counters() const { return counters_; }

    CachePolicy &cache() { return *cache_; }
    const CachePolicy &cache() const { return *cache_; }
    NvramDevice &nvram() { return nvram_; }
    const NvramDevice &nvram() const { return nvram_; }
    DramDevice &dram() { return dram_; }
    const DramDevice &dram() const { return dram_; }

    MemoryMode mode() const { return mode_; }
    const ChannelParams &params() const { return params_; }

    /** Reset cache contents and counters (fresh benchmark). */
    void reset();

    /**
     * Register this channel's live stats under @p g: every uncore
     * counter, derived rates, device totals and throttle state, all as
     * formulas reading the channel (no hot-path cost). The channel
     * must not move afterwards — call only once it sits in its final
     * storage.
     */
    void regStats(obs::Group &g);

  private:
    AccessResult handle2lm(const MemRequest &req);
    AccessResult handle1lm(const MemRequest &req, MemPool pool);

    /**
     * Apply a request's DeviceActions to the devices, collecting any
     * media faults the NVRAM draws into @p result.
     */
    void applyActions(const MemRequest &req, const CacheResult &cr,
                      AccessResult &result);

    /** Account one media-fault outcome against counters and @p result. */
    void noteMediaFault(const MediaFault &f, AccessResult &result,
                        bool demand_line, Addr line);

    /**
     * Per-demand-request maintenance work: feed the RowHammer tracker
     * the request's DRAM activations (tag probes included), run the
     * patrol scrubber's cadence tick, walk the ECC escalation ladder on
     * scrub findings, and charge targeted-refresh time to the request.
     */
    void runMaintenance(const MemRequest &req, MemPool pool,
                        AccessResult &result);

    ChannelParams params_;
    MemoryMode mode_;
    DramDevice dram_;
    NvramDevice nvram_;
    std::unique_ptr<CachePolicy> cache_;
    DeviceLatencies lat_;
    PerfCounters counters_;
    std::uint64_t epochMisses_ = 0;
    FaultPlan faultPlan_;
    ThrottleState throttle_;
    MaintenanceEngine maint_;
    /** Queue engine; nullptr under the degenerate analytic scheduler. */
    std::unique_ptr<ChannelTxQueue> txq_;
};

} // namespace nvsim

#endif // NVSIM_IMC_CHANNEL_HH
