/**
 * @file
 * DRAM refresh under the cache, as a bandwidth thief.
 *
 * The paper's Table I amplification numbers assume a DRAM device that
 * is always available, but real DRAM loses bank time to refresh: every
 * tREFI the controller issues a REF command that blocks the banks for
 * tRFC, stealing a duty-cycle fraction tRFC/tREFI of all demand slots.
 * The analytic engine charges that duty to every epoch's DRAM time and
 * the expected residual-tRFC wait to every DRAM access; the queued
 * controller models per-bank REF windows instead (imc/scheduler).
 *
 * Refresh needs no per-request state, so it runs on the batched access
 * engine. Off by default, which is behavior-neutral by construction
 * (no latency, no counters).
 */

#ifndef NVSIM_MEM_MAINTENANCE_MAINTENANCE_HH
#define NVSIM_MEM_MAINTENANCE_MAINTENANCE_HH

#include <cstdint>

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

/** The maintenance block of SystemConfig: refresh. Off by default. */
struct MaintenanceConfig
{
    RefreshConfig refresh;

    bool enabled() const { return refresh.enabled(); }

    /** Reject negative cadences and a tRFC that eats all bank time. */
    void validate() const;
};

/**
 * Per-channel refresh front end owned by the ChannelController: the
 * refresh duty, the demand stall it implies and the REF command count
 * of each epoch. Disabled (the default) it is inert.
 */
class MaintenanceEngine
{
  public:
    MaintenanceEngine() = default;
    explicit MaintenanceEngine(const MaintenanceConfig &config)
        : config_(config)
    {
    }

    bool enabled() const { return config_.enabled(); }
    const MaintenanceConfig &config() const { return config_; }

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

    /**
     * Close one epoch of duration @p dt: returns the REF commands the
     * DIMM issued in it. Fractional commands carry over, so slot
     * counts are exact over any epoch partition.
     */
    std::uint64_t closeEpoch(double dt);

    /** Clear the carried fraction (fresh benchmark). */
    void reset() { refreshCarry_ = 0; }

  private:
    MaintenanceConfig config_;
    double refreshCarry_ = 0;  //!< fractional REF commands carried over
};

} // namespace nvsim

#endif // NVSIM_MEM_MAINTENANCE_MAINTENANCE_HH
