#include "imc/bypass_policy.hh"

namespace nvsim
{

namespace
{

std::uint32_t
roundUpPow2(std::uint32_t v)
{
    std::uint32_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

} // namespace

BypassSelectiveInsertPolicy::BypassSelectiveInsertPolicy(
    const DramCacheParams &params, const CachePolicyConfig &config)
    : DirectMappedTagEccPolicy(params),
      threshold_(config.insertThreshold),
      mask_(roundUpPow2(config.counterEntries) - 1)
{
    table_.assign(std::size_t(mask_) + 1, Entry{});
}

std::uint32_t
BypassSelectiveInsertPolicy::slot(Addr line) const
{
    return static_cast<std::uint32_t>(lineIndex(line)) & mask_;
}

unsigned
BypassSelectiveInsertPolicy::missCount(Addr addr) const
{
    Addr line = lineBase(addr);
    const Entry &e = table_[slot(line)];
    return e.line == line + 1 ? e.count : 0;
}

bool
BypassSelectiveInsertPolicy::shouldInsert(Addr addr, MemRequestKind kind)
{
    (void)kind;
    Addr line = lineBase(addr);
    Entry &e = table_[slot(line)];
    if (e.line != line + 1) {
        // Aliasing line (or empty slot): the newcomer takes the entry
        // over, so cold lines decay under pressure.
        e.line = line + 1;
        e.count = 1;
    } else {
        ++e.count;
    }
    if (e.count < threshold_)
        return false;
    // The line earned its insertion; retire the entry so a future
    // eviction makes it start earning again from scratch.
    e = Entry{};
    return true;
}

} // namespace nvsim
