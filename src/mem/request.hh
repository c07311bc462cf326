/**
 * @file
 * Request types exchanged between the LLC model and the integrated
 * memory controller (IMC), the per-request device action summary that
 * Table I of the paper tabulates, and the per-access *cause* taxonomy
 * the causal tracer (obs/causal.hh) uses to attribute each device
 * access to the Figure 3 miss-handler step that generated it.
 */

#ifndef NVSIM_MEM_REQUEST_HH
#define NVSIM_MEM_REQUEST_HH

#include <array>
#include <cstdint>

#include "core/types.hh"

namespace nvsim
{

/** One 64 B request from the LLC to the IMC. */
struct MemRequest
{
    MemRequestKind kind;    //!< LlcRead (load / RFO) or LlcWrite
    Addr addr;              //!< line-aligned physical address
    std::uint16_t thread;   //!< issuing thread (for stream tracking)
    /**
     * Causal-tracing sample: when set, the channel fills
     * AccessResult::breakdown with one CauseSpan per device access.
     * Off (the default) the breakdown code never runs.
     */
    bool traced = false;
};

/**
 * Device accesses generated by a single IMC request — the unit Table I
 * counts. All counts are in 64 B device transactions.
 */
struct DeviceActions
{
    std::uint32_t dramReads = 0;
    std::uint32_t dramWrites = 0;
    std::uint32_t nvramReads = 0;
    std::uint32_t nvramWrites = 0;

    /** Total device accesses for one demand request (amplification). */
    std::uint32_t
    total() const
    {
        return dramReads + dramWrites + nvramReads + nvramWrites;
    }

    DeviceActions &
    operator+=(const DeviceActions &o)
    {
        dramReads += o.dramReads;
        dramWrites += o.dramWrites;
        nvramReads += o.nvramReads;
        nvramWrites += o.nvramWrites;
        return *this;
    }
};

/** How a request resolved in the 2LM DRAM cache. */
enum class CacheOutcome : std::uint8_t {
    Hit,          //!< tag matched in DRAM
    MissClean,    //!< tag mismatch, evicted line clean
    MissDirty,    //!< tag mismatch, evicted line dirty (NVRAM writeback)
    DdoHit,       //!< LLC write forwarded via the Dirty Data Optimization
    Uncached,     //!< 1LM access (no DRAM cache in the path)
};

const char *cacheOutcomeName(CacheOutcome outcome);

/**
 * Why a single device access happened — one label per arrow in the
 * Figure 3 miss-handler flow chart. Every entry in a CausalBreakdown
 * is exactly one 64 B device transaction, so per-cause counts sum to
 * DeviceActions::total() for the same request.
 */
enum class AccessCause : std::uint8_t {
    TagProbe,         //!< DRAM read that checks the cache tag
    CacheFillRead,    //!< NVRAM read fetching the missing line
    CacheInsertWrite, //!< DRAM write installing the fetched line
    DataWrite,        //!< the demand write's own data transfer
    DirtyWriteback,   //!< NVRAM write evicting a dirty victim
    DdoElideWrite,    //!< DDO write that skipped the fill entirely
    DirectAccess,     //!< 1LM access straight to the backing pool
    DataRead,         //!< DRAM data read with the tag answered by SRAM
    BypassRead,       //!< NVRAM read serving a non-inserted miss
    QueueWait,        //!< time queued in the controller before issue
    WriteDrain,       //!< time queued behind a WPQ drain burst
    BankConflict,     //!< row-buffer conflict penalty at issue
};

constexpr unsigned kNumAccessCauses = 12;

const char *accessCauseName(AccessCause cause);

/** One device access attributed to its Fig-3 cause. */
struct CauseSpan
{
    AccessCause cause;
    MemPool device;     //!< Dram or Nvram
    double latency;     //!< seconds charged for this device access
};

/**
 * Blame tree for one sampled demand request: the ordered list of
 * device accesses it induced. Fixed capacity — the worst case in the
 * model is Table I's dirty LLC write miss at 5 accesses, and the
 * queued controller can append a wait span and a bank-conflict span on
 * top; 8 holds that without heap traffic on the sampled path.
 */
struct CausalBreakdown
{
    std::array<CauseSpan, 8> spans;
    std::uint8_t count = 0;

    void
    add(AccessCause cause, MemPool device, double latency)
    {
        if (count < spans.size())
            spans[count++] = CauseSpan{cause, device, latency};
    }
};

} // namespace nvsim

#endif // NVSIM_MEM_REQUEST_HH
