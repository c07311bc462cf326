#include "sys/config.hh"

#include <algorithm>

#include "core/logging.hh"
#include "imc/dram_cache.hh"

namespace nvsim
{

Bytes
SystemConfig::scaledLlc() const
{
    // Keep at least a few sets so associativity stays meaningful.
    return std::max<Bytes>(llcCapacity / scale,
                           static_cast<Bytes>(llcWays) * 4 * kLineSize);
}

ChannelParams
SystemConfig::channelParams() const
{
    ChannelParams p;
    p.dram = dram;
    p.dram.capacity = scaledDramPerDimm();
    p.nvram = nvram;
    p.nvram.capacity = scaledNvramPerDimm();
    p.ddo = ddo;
    p.cacheWays = cacheWays;
    p.insertOnWriteMiss = insertOnWriteMiss;
    p.busBandwidth = busBandwidth;
    p.missHandlerEntries = missHandlerEntries;
    p.policy = policy;
    p.maintenance = maintenance;
    p.controller = controller;

    // Size the recent-insert tracker relative to the LLC: a dirty line
    // written back after a full LLC residency must still be remembered,
    // so cover ~4x the LLC's lines, split across channels.
    Bytes llc_lines = scaledLlc() / kLineSize;
    std::uint64_t per_channel =
        std::max<std::uint64_t>(4 * llc_lines / totalChannels(), 256);
    p.ddo.trackerEntries = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(per_channel, 1u << 24));
    return p;
}

void
SystemConfig::validate() const
{
    if (sockets == 0)
        fatal("sockets must be at least 1");
    if (channelsPerSocket == 0)
        fatal("channelsPerSocket must be at least 1");
    if (scale == 0)
        fatal("scale divisor must be nonzero");
    if (cacheWays == 0)
        fatal("cacheWays must be at least 1");
    if (interleaveGranularity == 0)
        fatal("interleaveGranularity must be nonzero");
    if (scaledDramPerDimm() < 64 * kLineSize)
        fatal("scaled DRAM DIMM too small (%llu B); lower the scale",
              static_cast<unsigned long long>(scaledDramPerDimm()));
    if (scaledDramPerDimm() < interleaveGranularity)
        fatal("scaled DRAM DIMM (%llu B) below the %llu B interleave "
              "granule; lower the scale or the granule",
              static_cast<unsigned long long>(scaledDramPerDimm()),
              static_cast<unsigned long long>(interleaveGranularity));
    if (scaledNvramPerDimm() < interleaveGranularity)
        fatal("scaled NVRAM DIMM (%llu B) below the %llu B interleave "
              "granule; lower the scale or the granule",
              static_cast<unsigned long long>(scaledNvramPerDimm()),
              static_cast<unsigned long long>(interleaveGranularity));
    if (scaledNvramPerDimm() < scaledDramPerDimm())
        fatal("NVRAM DIMM smaller than DRAM DIMM after scaling");
    if (mode == MemoryMode::TwoLm) {
        // Every 2LM policy keeps a way's tag, lineIndex / sets, in a
        // 15-bit field: the largest is just under ways x NVRAM/DRAM.
        const std::uint64_t sets =
            scaledDramPerDimm() / kLineSize / cacheWays;
        const std::uint64_t max_tag =
            sets ? (scaledNvramPerDimm() / kLineSize - 1) / sets : 0;
        if (max_tag > DirectMappedTagEccPolicy::kMaxTag)
            fatal("2LM tag %llu exceeds the 16-bit tag word's limit of "
                  "%llu: cacheWays (%u) x NVRAM/DRAM per channel is too "
                  "large",
                  static_cast<unsigned long long>(max_tag),
                  static_cast<unsigned long long>(
                      DirectMappedTagEccPolicy::kMaxTag),
                  cacheWays);
    }
    if (mlp == 0)
        fatal("per-thread MLP must be at least 1");
    if (epochBytes == 0)
        fatal("epochBytes must be nonzero");
    if (epochBytes < kLineSize)
        fatal("epochBytes must cover at least one line");
    policy.validate();
    maintenance.validate();
    controller.validate();
}

} // namespace nvsim
