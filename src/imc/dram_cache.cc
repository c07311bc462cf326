#include "imc/dram_cache.hh"

#include <algorithm>

#include "core/logging.hh"
#include "obs/heatmap.hh"

namespace nvsim
{

DirectMappedTagEccPolicy::DirectMappedTagEccPolicy(
    const DramCacheParams &params)
    : params_(params), ways_(params.ways ? params.ways : 1),
      numSets_(params.capacity / kLineSize / ways_),
      ddo_(DdoPolicy::create(params.ddo))
{
    if (numSets_ == 0)
        fatal("DRAM cache capacity %llu too small for %u ways",
              static_cast<unsigned long long>(params.capacity), ways_);
    if (numSets_ * ways_ > (1ull << 28)) {
        fatal("DRAM cache tag store would need %llu entries; "
              "apply a SystemConfig scale factor to shrink capacities",
              static_cast<unsigned long long>(numSets_ * ways_));
    }
    const std::size_t entries = numSets_ * ways_;
    wayTag_.assign(entries, kInvalidWord);
    if (ways_ > 1)
        wayLru_.assign(entries, 0);
    if ((numSets_ & (numSets_ - 1)) == 0) {
        setMask_ = numSets_ - 1;
        setShift_ = 0;
        while ((1ull << setShift_) < numSets_)
            ++setShift_;
    }
}

std::uint64_t
DirectMappedTagEccPolicy::setOf(Addr addr) const
{
    std::uint64_t set, tag;
    splitAddr(addr, set, tag);
    return set;
}

std::uint64_t
DirectMappedTagEccPolicy::tagOf(Addr addr) const
{
    std::uint64_t set, tag;
    splitAddr(addr, set, tag);
    return tag;
}

Addr
DirectMappedTagEccPolicy::addrOf(std::uint64_t set, std::uint64_t tag) const
{
    return (tag * numSets_ + set) * kLineSize;
}

DirectMappedTagEccPolicy::WayIdx
DirectMappedTagEccPolicy::find(std::uint64_t set, std::uint64_t tag) const
{
    // The probe loop touches only the tag words (empty ways hold
    // kInvalidWord) — the point of the structure-of-arrays layout. No
    // tag above kMaxTag is ever inserted, and kInvalidTag must not
    // match an empty way.
    if (tag > kMaxTag)
        return kNoWay;
    const WayIdx base = set * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        if (tagAt(base + w) == tag)
            return base + w;
    }
    return kNoWay;
}

void
DirectMappedTagEccPolicy::renumberLru()
{
    std::vector<std::uint32_t> rank(ways_);
    for (WayIdx base = 0; base < wayTag_.size(); base += ways_) {
        std::uint32_t *lru = &wayLru_[base];
        for (unsigned w = 0; w < ways_; ++w) {
            // An empty way is the victim whatever its stamp; keep 0.
            rank[w] = 0;
            if (!wayValid(base + w))
                continue;
            rank[w] = 1;
            for (unsigned v = 0; v < ways_; ++v) {
                if (wayValid(base + v) && lru[v] < lru[w])
                    ++rank[w];
            }
        }
        std::copy(rank.begin(), rank.end(), lru);
    }
    lruClock_ = ways_;
}

DirectMappedTagEccPolicy::WayIdx
DirectMappedTagEccPolicy::victimWay(std::uint64_t set) const
{
    const WayIdx base = set * ways_;
    WayIdx victim = kNoWay;
    for (unsigned w = 0; w < ways_; ++w) {
        // The retired sideband stays unread until a way is retired.
        if (retiredWays_ && wayRetired_[base + w])
            continue;
        if (!wayValid(base + w))
            return base + w;
        if (victim == kNoWay || wayLru_[base + w] < wayLru_[victim])
            victim = base + w;
    }
    // Precondition: !setRetired(set), so one serviceable way exists.
    return victim;
}

bool
DirectMappedTagEccPolicy::shouldInsert(Addr addr, MemRequestKind kind)
{
    (void)addr;
    (void)kind;
    return true;  // the stock controller inserts on every miss
}

void
DirectMappedTagEccPolicy::bypassRead(Addr addr, CacheResult &result)
{
    result.outcome = CacheOutcome::MissClean;
    result.actions.nvramReads += 1;
    result.fill = lineBase(addr);
    result.filled = true;
    result.bypassed = true;
}

void
DirectMappedTagEccPolicy::bypassWrite(Addr addr, CacheResult &result)
{
    result.outcome = CacheOutcome::MissClean;
    result.actions.nvramWrites += 1;
    result.victim = lineBase(addr);
    result.wroteBack = true;
}

void
DirectMappedTagEccPolicy::evict(std::uint64_t set, WayIdx victim,
                                CacheResult &result)
{
    result.outcome = CacheOutcome::MissClean;
    if (!wayValid(victim))
        return;
    if (profiler_)
        profiler_->noteEviction(set);
    Addr victim_addr = addrOf(set, tagAt(victim));
    if (isDirty(victim)) {
        // Write the dirty victim back to NVRAM.
        result.actions.nvramWrites += 1;
        result.victim = victim_addr;
        result.wroteBack = true;
        result.outcome = CacheOutcome::MissDirty;
    }
    ddo_->noteEvict(victim_addr);
}

DirectMappedTagEccPolicy::WayIdx
DirectMappedTagEccPolicy::missHandler(Addr addr, std::uint64_t set,
                                      std::uint64_t tag,
                                      CacheResult &result)
{
    const WayIdx victim = victimWay(set);
    evict(set, victim, result);

    // Fetch the requested line from NVRAM and insert it (insert on
    // miss, regardless of whether the demand was a read or a write).
    result.actions.nvramReads += 1;
    result.actions.dramWrites += 1;
    result.fill = lineBase(addr);
    result.filled = true;
    insertTag(victim, tag, addr);
    return victim;
}

CacheResult
DirectMappedTagEccPolicy::read(Addr addr)
{
    std::uint64_t set, tag;
    splitAddr(addr, set, tag);
    CacheResult result;

    // The IMC always starts with a DRAM read: data and tag arrive
    // together (tag lives in the ECC bits).
    result.actions.dramReads = 1;

    if (WayIdx way = find(set, tag); way != kNoWay) {
        result.outcome = CacheOutcome::Hit;
        touchLru(way);
        if (profiler_)
            profiler_->noteHit(set);
        return result;
    }
    if (profiler_)
        profiler_->noteMiss(set);
    if (shouldInsert(addr, MemRequestKind::LlcRead) && !setRetired(set))
        missHandler(addr, set, tag, result);
    else
        bypassRead(addr, result);
    return result;
}

CacheResult
DirectMappedTagEccPolicy::write(Addr addr)
{
    std::uint64_t set, tag;
    splitAddr(addr, set, tag);
    CacheResult result;

    WayIdx way = find(set, tag);

    // Dirty Data Optimization: forward the write straight to DRAM
    // without a tag check when the policy knows the line is resident.
    if (ddo_->check(lineBase(addr), way != kNoWay)) {
        result.outcome = CacheOutcome::DdoHit;
        result.actions.dramWrites = 1;
        markDirty(way);
        touchLru(way);
        if (profiler_)
            profiler_->noteHit(set);
        return result;
    }

    // Tag check: one DRAM read (tag rides in ECC bits).
    result.actions.dramReads = 1;

    if (way == kNoWay) {
        if (profiler_)
            profiler_->noteMiss(set);
        if (!params_.insertOnWriteMiss ||
            !shouldInsert(addr, MemRequestKind::LlcWrite) ||
            setRetired(set)) {
            // Write-no-allocate ablation / selective-insert bypass /
            // fully-retired set: the store lands in NVRAM; the current
            // occupant (if the set still has one) stays.
            bypassWrite(addr, result);
            result.bypassed = params_.insertOnWriteMiss;
            return result;
        }
        // Insert on miss: the miss handler runs first (NVRAM fetch +
        // DRAM insert), then the demand data is written. This is the
        // second DRAM write observed in Figure 4b.
        way = missHandler(addr, set, tag, result);
    } else {
        result.outcome = CacheOutcome::Hit;
        if (profiler_)
            profiler_->noteHit(set);
    }

    result.actions.dramWrites += 1;
    markDirty(way);
    touchLru(way);
    return result;
}

TagCorruption
DirectMappedTagEccPolicy::corruptTag(Addr addr)
{
    std::uint64_t set, tag;
    splitAddr(addr, set, tag);
    TagCorruption tc;

    WayIdx way = find(set, tag);
    if (way == kNoWay) {
        if (setRetired(set))
            return tc;  // nothing serviceable left to corrupt
        way = victimWay(set);
    }
    if (!wayValid(way))
        return tc;

    tc.dropped = true;
    tc.wasDirty = isDirty(way);
    tc.line = addrOf(set, tagAt(way));
    // Keep the DDO tracker consistent: the line is gone, later writes
    // must not elide their tag check.
    ddo_->noteEvict(tc.line);
    clearWay(way);
    return tc;
}

TagCorruption
DirectMappedTagEccPolicy::retireFrame(Addr frame)
{
    // The scrubber walks device frames; fold the frame index onto the
    // way store (for the direct-mapped geometry this is exactly the
    // set the frame backs).
    WayIdx idx = lineIndex(frame) % (numSets_ * ways_);
    TagCorruption tc;
    if (wayRetired_.empty())
        wayRetired_.assign(numSets_ * ways_, 0);
    if (wayRetired_[idx])
        return tc;
    if (wayValid(idx)) {
        tc.dropped = true;
        tc.wasDirty = isDirty(idx);
        tc.line = addrOf(idx / ways_, tagAt(idx));
        // Keep the DDO tracker consistent: the line is gone, later
        // writes must not elide their tag check.
        ddo_->noteEvict(tc.line);
        if (profiler_)
            profiler_->noteEviction(idx / ways_);
    }
    clearWay(idx);
    wayRetired_[idx] = 1;
    ++retiredWays_;
    return tc;
}

bool
DirectMappedTagEccPolicy::resident(Addr addr) const
{
    return find(setOf(addr), tagOf(addr)) != kNoWay;
}

bool
DirectMappedTagEccPolicy::residentDirty(Addr addr) const
{
    WayIdx way = find(setOf(addr), tagOf(addr));
    return way != kNoWay && isDirty(way);
}

void
DirectMappedTagEccPolicy::invalidateAll()
{
    std::fill(wayTag_.begin(), wayTag_.end(), kInvalidWord);
    // Both fills are no-ops on the arrays that were never allocated.
    std::fill(wayLru_.begin(), wayLru_.end(), 0);
    std::fill(wayRetired_.begin(), wayRetired_.end(), 0);
    // A reboot remaps retired rows onto spares: retirement clears too.
    retiredWays_ = 0;
    // Recreate the DDO policy so no stale insert knowledge survives.
    ddo_ = DdoPolicy::create(params_.ddo);
}

} // namespace nvsim
