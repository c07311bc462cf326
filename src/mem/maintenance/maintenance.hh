/**
 * @file
 * DRAM self-management under the cache: refresh, patrol scrub and
 * RowHammer mitigation as first-class bandwidth thieves.
 *
 * The paper's Table I amplification numbers assume a DRAM device that
 * is always available, but real DRAM continuously loses bank time to
 * maintenance:
 *
 *  - Refresh: every tREFI the controller issues a REF command that
 *    blocks the banks for tRFC, stealing a duty-cycle fraction
 *    tRFC/tREFI of all demand slots.
 *  - Patrol scrub: the controller walks the DRAM frames on a cadence,
 *    reading each line through ECC. Correctable errors are logged and
 *    scrubbed in place; a frame that keeps producing correctable
 *    errors is retired (mapped out to a spare); an uncorrectable error
 *    escalates into the fault layer's poison / invalidate+refetch
 *    path — and in 2LM it also destroys the in-ECC tag.
 *  - RowHammer mitigation: a Graphene-style top-k activation tracker
 *    (Misra-Gries frequent elements with a spillover counter) fires a
 *    targeted refresh of a hot row's neighbors when its activation
 *    count crosses the threshold within one refresh window. In 2LM
 *    every tag probe is itself a row activation, so hardware cache
 *    management generates its own RowHammer pressure; 1LM NVRAM
 *    traffic never touches DRAM rows at all.
 *
 * All of it is deterministic and seeded: the scrub engine derives an
 * independent RNG stream per channel from (seed, channel) exactly the
 * way FaultPlan does, so maintenance-on runs replay bit-identically at
 * any parallelism and maintenance-off runs never touch an RNG.
 * Everything defaults to off, which is behavior-neutral by
 * construction (no draws, no latency, no counters).
 */

#ifndef NVSIM_MEM_MAINTENANCE_MAINTENANCE_HH
#define NVSIM_MEM_MAINTENANCE_MAINTENANCE_HH

#include <cstdint>
#include <map>

#include "core/rng.hh"
#include "core/types.hh"

namespace nvsim
{

/** tREFI/tRFC refresh accounting of one DRAM DIMM. Off while trefi=0. */
struct RefreshConfig
{
    /** Seconds between REF commands (JEDEC nominal 7.8e-6); 0 = off. */
    double trefi = 0;
    /** Seconds each REF command blocks the DIMM's banks. */
    double trfc = 350e-9;

    bool enabled() const { return trefi > 0; }

    /** Fraction of bank time lost to refresh. */
    double duty() const { return enabled() ? trfc / trefi : 0.0; }
};

/** Patrol-scrub cadence and ECC error model. Off while interval=0. */
struct ScrubConfig
{
    /**
     * DRAM-touching demand requests between patrol reads on a channel
     * (the scrubber steals one DRAM demand slot each time); 0 = off.
     * Requests that never contend for the DRAM device — an app-direct
     * NVRAM stream — do not advance the cadence. Fractional values are
     * honored via accumulation, floored at one read per request.
     */
    double interval = 0;
    /** Correctable-error probability per patrol read. */
    double correctable = 0;
    /** Uncorrectable-error probability per patrol read. */
    double uncorrectable = 0;
    /** Correctable errors on one frame before it is retired. */
    unsigned retireThreshold = 2;
    /** Spare-row budget: frames the channel can map out. */
    std::uint64_t retireCapacity = 64;

    bool enabled() const { return interval > 0; }
};

/** Graphene-style RowHammer tracker + targeted-refresh mitigation. */
struct RowHammerConfig
{
    /** Activations per row per window that trigger mitigation; 0 = off. */
    std::uint64_t threshold = 0;
    /** Counter-table entries (the top-k of the Misra-Gries sketch). */
    std::uint32_t trackerEntries = 64;
    /** Bytes per DRAM row (one activation covers this span). */
    Bytes rowBytes = 8 * kKiB;
    /** Neighbor rows refreshed per mitigation (both directions). */
    unsigned blastRadius = 2;
    /** Bank-blocking seconds per neighbor-row targeted refresh. */
    double refreshLatency = 60e-9;
    /** Tracker reset period (tREFW: all rows refreshed naturally). */
    double window = 64e-3;

    bool enabled() const { return threshold > 0; }
};

/** The maintenance block of SystemConfig. All-off by default. */
struct MaintenanceConfig
{
    /** Master seed; each channel derives its own scrub stream. */
    std::uint64_t seed = 1;
    RefreshConfig refresh;
    ScrubConfig scrub;
    RowHammerConfig rowhammer;

    bool
    enabled() const
    {
        return refresh.enabled() || scrub.enabled() ||
               rowhammer.enabled();
    }

    /** Reject negative cadences, zero thresholds and the like. */
    void validate() const;
};

/**
 * Misra-Gries top-k row-activation tracker with a spillover counter
 * (the Graphene construction): rows evicted from the table donate
 * their count to the spillover, and a new row enters at the spillover
 * value, so no row's true activation count is ever underestimated —
 * the no-false-negative property a RowHammer defense needs.
 */
class RowTracker
{
  public:
    RowTracker() = default;
    explicit RowTracker(const RowHammerConfig &config) : config_(config)
    {
    }

    /**
     * Record @p n activations of @p row. Returns the number of
     * threshold crossings (targeted-refresh mitigations to fire); the
     * row's counter keeps the remainder, as the hardware's counter
     * reset on mitigation does.
     */
    unsigned activate(std::uint64_t row, std::uint64_t n);

    /** tREFW rollover: every row was refreshed naturally; start over. */
    void resetWindow();

    std::uint64_t spillover() const { return spillover_; }
    std::size_t tracked() const { return counts_.size(); }

  private:
    RowHammerConfig config_;
    std::map<std::uint64_t, std::uint64_t> counts_;  //!< row -> count
    std::uint64_t spillover_ = 0;
};

/** What one maintenance tick did (at most one patrol read per tick). */
struct ScrubOutcome
{
    bool read = false;           //!< a patrol read was issued
    Addr frame = 0;              //!< channel-local frame it read
    bool correctableError = false;
    bool uncorrectableError = false;
    bool retire = false;         //!< the frame was mapped out
};

/**
 * Patrol scrubber of one channel: walks the DRAM frames on the
 * configured cadence, draws ECC outcomes from its seeded stream, and
 * runs the repeat-CE retirement ladder. Frames with an uncorrectable
 * error are retired immediately while spare capacity lasts.
 */
class ScrubEngine
{
  public:
    ScrubEngine() = default;
    ScrubEngine(const ScrubConfig &config, Bytes capacity,
                std::uint64_t seed, unsigned channel);

    /** One demand request passed; maybe issue one patrol read. */
    ScrubOutcome tick();

    std::uint64_t retiredFrames() const { return retired_; }

  private:
    ScrubConfig config_;
    Bytes capacity_ = 0;
    double pending_ = 0;  //!< fractional requests toward the next read
    Addr walk_ = 0;       //!< next frame the scrubber will read
    Rng rng_;
    /** Correctable-error count per frame (the retirement ladder). */
    std::map<Addr, unsigned> ceCount_;
    std::uint64_t retired_ = 0;
};

/**
 * Per-channel maintenance front end owned by the ChannelController:
 * scrub ticks, row-activation accounting, refresh duty and the epoch
 * time/slot bookkeeping. Disabled (the default) it is a single branch
 * per hook and holds no RNG state.
 */
class MaintenanceEngine
{
  public:
    MaintenanceEngine() = default;
    MaintenanceEngine(const MaintenanceConfig &config, Bytes dramCapacity,
                      unsigned channel);

    bool enabled() const { return enabled_; }
    const MaintenanceConfig &config() const { return config_; }

    /** One demand request was handled; maybe issue one patrol read. */
    ScrubOutcome demandTick() { return scrub_.tick(); }

    /**
     * Record @p n row activations at channel-local byte address
     * @p local. Returns the targeted-refresh mitigations triggered;
     * their bank-blocking time accrues for drainTargetedTime().
     */
    unsigned noteActivation(Addr local, std::uint64_t n);

    /** Fraction of DRAM bank time lost to tREFI/tRFC refresh. */
    double refreshDuty() const { return config_.refresh.duty(); }

    /**
     * Mean extra load-to-use stall a demand access sees from refresh:
     * with probability duty it arrives during a REF and waits half the
     * residual tRFC on average.
     */
    double
    refreshDemandStall() const
    {
        double d = refreshDuty();
        return d > 0 ? d * config_.refresh.trfc * 0.5 : 0.0;
    }

    /** Targeted-refresh DRAM seconds accrued since the last drain. */
    double drainTargetedTime();

    /** Account DRAM seconds a patrol read occupied the device for. */
    void noteScrubTime(double seconds) { scrubTime_ += seconds; }
    double drainScrubTime();

    /**
     * Close one epoch of duration @p dt: returns the REF commands the
     * DIMM issued in it (fractional commands carry over, so slot
     * counts are exact over any epoch partition) and advances the
     * RowHammer window clock, resetting the tracker on tREFW rollover.
     */
    std::uint64_t closeEpoch(double dt);

    std::uint64_t retiredFrames() const { return scrub_.retiredFrames(); }
    std::uint64_t trackedRows() const { return tracker_.tracked(); }

    /** Re-seed every stream and clear accumulators (fresh benchmark). */
    void reset();

  private:
    MaintenanceConfig config_;
    Bytes capacity_ = 0;
    unsigned channel_ = 0;
    bool enabled_ = false;
    ScrubEngine scrub_;
    RowTracker tracker_;
    double targetedTime_ = 0;  //!< pending targeted-refresh seconds
    double scrubTime_ = 0;     //!< pending patrol-read device seconds
    double refreshCarry_ = 0;  //!< fractional REF commands carried over
    double windowClock_ = 0;   //!< seconds into the RowHammer window
};

} // namespace nvsim

#endif // NVSIM_MEM_MAINTENANCE_MAINTENANCE_HH
