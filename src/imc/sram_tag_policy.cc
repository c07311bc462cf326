#include "imc/sram_tag_policy.hh"


namespace nvsim
{

SramTagSetAssocPolicy::SramTagSetAssocPolicy(
    const DramCacheParams &params, const CachePolicyConfig &config)
    : DirectMappedTagEccPolicy(params), lru_(config.replacement == "lru")
{
}

DirectMappedTagEccPolicy::WayIdx
SramTagSetAssocPolicy::fill(Addr addr, std::uint64_t set,
                            std::uint64_t tag, CacheResult &result)
{
    const WayIdx victim = victimWay(set);
    evict(set, victim, result);

    result.actions.nvramReads += 1;
    result.fill = lineBase(addr);
    result.filled = true;
    // Both LRU and FIFO stamp at insertion; they differ on hits.
    insertTag(victim, tag, addr);
    return victim;
}

CacheResult
SramTagSetAssocPolicy::read(Addr addr)
{
    std::uint64_t set, tag;
    splitAddr(addr, set, tag);
    CacheResult result;
    result.tagsInSram = true;

    if (WayIdx way = find(set, tag); way != kNoWay) {
        // The SRAM array answered the tag check; the only device
        // traffic is the data read itself.
        result.outcome = CacheOutcome::Hit;
        result.actions.dramReads = 1;
        if (lru_)
            touchLru(way);
        return result;
    }
    fill(addr, set, tag, result);
    result.actions.dramWrites += 1;  // install the fetched line
    return result;
}

CacheResult
SramTagSetAssocPolicy::write(Addr addr)
{
    std::uint64_t set, tag;
    splitAddr(addr, set, tag);
    CacheResult result;
    result.tagsInSram = true;

    if (WayIdx way = find(set, tag); way != kNoWay) {
        result.outcome = CacheOutcome::Hit;
        result.actions.dramWrites = 1;
        markDirty(way);
        if (lru_)
            touchLru(way);
        return result;
    }
    if (!params_.insertOnWriteMiss) {
        // Write-no-allocate ablation: straight to NVRAM, no fill.
        bypassWrite(addr, result);
        return result;
    }
    // Insert on miss, but — unlike tags-in-ECC — the demand data is
    // merged into the fill: one NVRAM fetch, one DRAM write total.
    WayIdx way = fill(addr, set, tag, result);
    result.actions.dramWrites += 1;
    markDirty(way);
    return result;
}

double
SramTagSetAssocPolicy::demandLatency(MemRequestKind kind,
                                     const CacheResult &cr,
                                     const DeviceLatencies &lat) const
{
    if (kind == MemRequestKind::LlcRead) {
        // No tag-probe device read ever serializes the demand: hits
        // are one DRAM round trip, misses one NVRAM fetch.
        return cr.outcome == CacheOutcome::Hit ? lat.dram : lat.nvramRead;
    }
    // Posted writes: the accept path is the device the data lands on.
    return (!cr.filled && cr.wroteBack) ? lat.nvramWrite : lat.dram;
}

double
SramTagSetAssocPolicy::missServiceTime(const DeviceLatencies &lat) const
{
    // The miss-handler entry holds only the NVRAM fetch; the SRAM tag
    // lookup happened before the entry was allocated.
    return lat.nvramRead;
}

CausalBreakdown
SramTagSetAssocPolicy::breakdown(MemRequestKind kind,
                                 const CacheResult &cr,
                                 const DeviceLatencies &lat) const
{
    CausalBreakdown b;
    if (cr.outcome == CacheOutcome::Hit) {
        if (kind == MemRequestKind::LlcRead)
            b.add(AccessCause::DataRead, MemPool::Dram, lat.dram);
        else
            b.add(AccessCause::DataWrite, MemPool::Dram, lat.dram);
        return b;
    }
    if (cr.filled) {
        if (cr.wroteBack)
            b.add(AccessCause::DirtyWriteback, MemPool::Nvram,
                  lat.nvramWrite);
        b.add(AccessCause::CacheFillRead, MemPool::Nvram, lat.nvramRead);
        if (kind == MemRequestKind::LlcRead)
            b.add(AccessCause::CacheInsertWrite, MemPool::Dram, lat.dram);
        else
            // The fill and the demand data land in one merged write.
            b.add(AccessCause::DataWrite, MemPool::Dram, lat.dram);
    } else if (kind == MemRequestKind::LlcWrite) {
        b.add(AccessCause::DataWrite, MemPool::Nvram, lat.nvramWrite);
    }
    return b;
}

} // namespace nvsim
