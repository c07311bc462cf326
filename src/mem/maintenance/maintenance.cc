#include "mem/maintenance/maintenance.hh"

#include "core/logging.hh"

namespace nvsim
{

void
MaintenanceConfig::validate() const
{
    if (refresh.trefi < 0)
        fatal("maintenance refresh tREFI = %g is a negative cadence",
              refresh.trefi);
    if (refresh.trfc < 0)
        fatal("maintenance refresh tRFC = %g is a negative cadence",
              refresh.trfc);
    if (refresh.enabled()) {
        if (refresh.trfc <= 0)
            fatal("maintenance refresh tRFC must be positive when "
                  "refresh is enabled");
        if (refresh.trfc >= refresh.trefi)
            fatal("maintenance refresh tRFC %g >= tREFI %g: the DIMM "
                  "would spend all bank time refreshing",
                  refresh.trfc, refresh.trefi);
    }
}

std::uint64_t
MaintenanceEngine::closeEpoch(double dt)
{
    if (!enabled() || dt <= 0)
        return 0;
    refreshCarry_ += dt / config_.refresh.trefi;
    std::uint64_t slots = static_cast<std::uint64_t>(refreshCarry_);
    refreshCarry_ -= static_cast<double>(slots);
    return slots;
}

} // namespace nvsim
