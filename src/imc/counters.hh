/**
 * @file
 * IMC uncore performance counters.
 *
 * The Cascade Lake IMC exposes column-access-strobe (CAS) counts for
 * DRAM, PMM read/write request counts for NVRAM, and 2LM tag statistics
 * (tag hit, tag miss clean, tag miss dirty). The paper samples these to
 * produce all of its bandwidth and tag traces; we expose the same event
 * set plus a ddoHit event that the real hardware does not report but
 * whose existence the paper infers.
 *
 * The counter set is defined once, in NVSIM_PERF_COUNTER_FIELDS; the
 * struct fields, element-wise operators, the named() view and the
 * forEachField() visitor are all generated from it, so adding a counter
 * is a one-line change.
 */

#ifndef NVSIM_IMC_COUNTERS_HH
#define NVSIM_IMC_COUNTERS_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "mem/request.hh"

namespace nvsim
{

/**
 * The full counter set: X(member, snake_name, description). The
 * refresh block (refreshSlots, maintenanceStallNs) is zero while
 * maintenance.refresh is off; the queue block (queueWaitNs down) is
 * zero unless the queued controller is enabled.
 */
#define NVSIM_PERF_COUNTER_FIELDS(X)                                     \
    X(dramRead, dram_read, "CAS.RD: 64 B DRAM reads")                    \
    X(dramWrite, dram_write, "CAS.WR: 64 B DRAM writes")                 \
    X(nvramRead, nvram_read, "PMM.RD: 64 B NVRAM bus reads")             \
    X(nvramWrite, nvram_write, "PMM.WR: 64 B NVRAM bus writes")          \
    X(tagHit, tag_hit, "2LM tag hits")                                   \
    X(tagMissClean, tag_miss_clean, "2LM tag misses, clean victim")      \
    X(tagMissDirty, tag_miss_dirty, "2LM tag misses, dirty victim")      \
    X(ddoHit, ddo_hit, "writes forwarded without a tag check")           \
    X(llcReads, llc_reads, "demand LLC read requests")                   \
    X(llcWrites, llc_writes, "demand LLC write requests")                \
    X(missBypass, miss_bypass,                                           \
      "misses served from NVRAM without inserting the line")             \
    X(sramTagLookups, sram_tag_lookups,                                  \
      "tag checks answered by controller SRAM (no device read)")         \
    X(refreshSlots, refresh_slots,                                       \
      "REF commands issued (each blocks the banks for tRFC)")            \
    X(maintenanceStallNs, maintenance_stall_ns,                          \
      "nanoseconds of DRAM bank time lost to maintenance")               \
    X(queueWaitNs, queue_wait_ns,                                        \
      "nanoseconds demand reads spent waiting in the read queue")        \
    X(bankConflicts, bank_conflicts,                                     \
      "issues that paid a row-buffer conflict penalty")                  \
    X(rowBufferHits, row_buffer_hits, "issues into an open row")         \
    X(writeDrains, write_drains, "WPQ drain bursts entered")

/** Number of counters in NVSIM_PERF_COUNTER_FIELDS. */
inline constexpr std::size_t kNumPerfFields = 0
#define NVSIM_PERF_COUNT(member, name, desc) +1
    NVSIM_PERF_COUNTER_FIELDS(NVSIM_PERF_COUNT)
#undef NVSIM_PERF_COUNT
    ;

/**
 * Positional index of each counter, in NVSIM_PERF_COUNTER_FIELDS
 * declaration order. Lets array-shaped consumers (the telemetry
 * engine's per-window delta vectors) address fields by name without
 * depending on anything outside this header.
 */
enum class PerfField : std::size_t
{
#define NVSIM_PERF_ENUM(member, name, desc) member,
    NVSIM_PERF_COUNTER_FIELDS(NVSIM_PERF_ENUM)
#undef NVSIM_PERF_ENUM
};

/** Uncore counter block of one memory channel / IMC. */
struct PerfCounters
{
#define NVSIM_PERF_DECL(member, name, desc) std::uint64_t member = 0;
    NVSIM_PERF_COUNTER_FIELDS(NVSIM_PERF_DECL)
#undef NVSIM_PERF_DECL

    /**
     * Visit every counter as f(snake_name, description, value).
     * Mutable overload passes a reference.
     */
    template <typename F>
    void
    forEachField(F &&f) const
    {
#define NVSIM_PERF_VISIT(member, name, desc) f(#name, desc, member);
        NVSIM_PERF_COUNTER_FIELDS(NVSIM_PERF_VISIT)
#undef NVSIM_PERF_VISIT
    }

    template <typename F>
    void
    forEachField(F &&f)
    {
#define NVSIM_PERF_VISIT(member, name, desc) f(#name, desc, member);
        NVSIM_PERF_COUNTER_FIELDS(NVSIM_PERF_VISIT)
#undef NVSIM_PERF_VISIT
    }

    /** Number of counters in the block. */
    static constexpr std::size_t numFields() { return kNumPerfFields; }

    /** snake_case name of field @p i (declaration order). */
    static const char *
    fieldName(std::size_t i)
    {
        static constexpr std::array<const char *, kNumPerfFields>
            kNames = {
#define NVSIM_PERF_NAME(member, name, desc) #name,
                NVSIM_PERF_COUNTER_FIELDS(NVSIM_PERF_NAME)
#undef NVSIM_PERF_NAME
            };
        return kNames[i];
    }

    /**
     * The counters as a dense array, in declaration order. Header-only
     * on purpose: obs-layer code (which nvsim_imc links, not the other
     * way round) can consume counter blocks without a link dependency
     * on counters.cc.
     */
    std::array<std::uint64_t, kNumPerfFields>
    asArray() const
    {
        std::array<std::uint64_t, kNumPerfFields> out;
        std::size_t i = 0;
        forEachField([&](const char *, const char *,
                         std::uint64_t v) { out[i++] = v; });
        return out;
    }

    /** Record the device actions of one request. */
    void
    addActions(const DeviceActions &a)
    {
        dramRead += a.dramReads;
        dramWrite += a.dramWrites;
        nvramRead += a.nvramReads;
        nvramWrite += a.nvramWrites;
    }

    /** Record a request outcome in the tag statistics. */
    void addOutcome(MemRequestKind kind, CacheOutcome outcome);

    PerfCounters &operator+=(const PerfCounters &o);

    /** Element-wise difference (this - o); used for interval sampling. */
    PerfCounters delta(const PerfCounters &o) const;

    /** Total demand requests. */
    std::uint64_t demand() const { return llcReads + llcWrites; }

    /** Total device accesses. */
    std::uint64_t
    deviceAccesses() const
    {
        return dramRead + dramWrite + nvramRead + nvramWrite;
    }

    /** Access amplification: device accesses per demand request. */
    double amplification() const;

    /** Named view for CSV / reporting. */
    std::map<std::string, std::uint64_t> named() const;
};

// The field list declares every member, so the struct is exactly its
// counters; a hand-added member would break the visitor's coverage.
static_assert(sizeof(PerfCounters) ==
              PerfCounters::numFields() * sizeof(std::uint64_t));

} // namespace nvsim

#endif // NVSIM_IMC_COUNTERS_HH
