/**
 * @file
 * MemorySystem: the library's central facade.
 *
 * Workloads (microbenchmark kernels, the CNN executor, graph
 * algorithms) drive the simulated machine through this class:
 *
 *   MemorySystem sys(config);
 *   Addr a = sys.allocate(bytes, "array");
 *   sys.setActiveThreads(24);
 *   sys.submit({tid, CpuOp::Load, a + off, 64});
 *   ...
 *   sys.quiesce();
 *   PerfCounters c = sys.counters();
 *
 * Timing is epoch based: demand traffic accumulates until `epochBytes`
 * have been requested (or advanceEpoch() is called); the epoch's
 * duration is the max of (a) each channel's resource time — shared bus,
 * DRAM device, NVRAM media with write-stream contention, 2LM miss
 * handler occupancy — and (b) the demand-side limit implied by thread
 * count, per-thread MLP and request latencies. Counter rates sampled at
 * epoch boundaries form the bandwidth/tag traces of Figures 5, 9, 10.
 */

#ifndef NVSIM_SYS_MEMSYS_HH
#define NVSIM_SYS_MEMSYS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/timeseries.hh"
#include "fault/fault.hh"
#include "imc/channel.hh"
#include "sys/config.hh"
#include "sys/llc.hh"

namespace nvsim
{

namespace obs
{
class Observer;
class TelemetryRun;
} // namespace obs

/** A named allocation in the simulated physical address space. */
struct Region
{
    std::string name;
    Addr base = 0;
    Bytes size = 0;
    MemPool pool = MemPool::Nvram;  //!< backing pool (1LM only)

    bool
    contains(Addr addr) const
    {
        return addr >= base && addr < base + size;
    }
};

/**
 * One demand access, as submit() consumes it: a thread's operation
 * over a byte range, split into 64 B lines by the engine. The single
 * unit of work for every access engine — per-line reference, batched,
 * queued — so callers never choose an engine by method name. A batch
 * may be a 4 B graph element or a whole DNN tensor chunk; a batch that
 * covers one line takes the batched engine's one-line path, a longer
 * one its segmented range path.
 */
struct AccessBatch
{
    unsigned thread = 0;
    CpuOp op = CpuOp::Load;
    Addr addr = 0;
    Bytes size = 0;
};

/** The simulated machine. */
class MemorySystem
{
  public:
    explicit MemorySystem(const SystemConfig &config);

    /** Seals an attached observer (its formulas read this object). */
    ~MemorySystem();

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /** @name Allocation
     * In 2LM mode all memory is NVRAM-backed (DRAM is the transparent
     * cache) and allocate() carves from one flat space. In 1LM mode
     * allocate() is NUMA-preferred: DRAM until exhausted, then NVRAM —
     * the Galois baseline policy. allocateIn() places explicitly (used
     * by AutoTM and Sage style software management).
     */
    ///@{
    Region allocate(Bytes size, const std::string &name);
    Region allocateIn(MemPool pool, Bytes size, const std::string &name);
    /** Remaining capacity of a pool (1LM). */
    Bytes poolFree(MemPool pool) const;
    ///@}

    /** @name Access
     * All sizes are in bytes; accesses are split into 64 B lines.
     */
    ///@{
    /**
     * THE demand entry point: walk the run of consecutive lines
     * covering [addr, addr + size). The engine behind it is chosen
     * here, not by the caller. The batched engine serves identity and
     * demand-paged (scatterPages) address spaces alike: a one-line
     * batch takes an inline path (LLC, translate, route, one device
     * request), a longer one is cut into page/chunk/pool segments. The
     * per-line reference loop runs whenever an observer is attached,
     * faults/maintenance are enabled, the queued controller is
     * configured, or batching is disabled via setBatchedAccess() — the
     * two are bit-identical where they overlap, including the order in
     * which first-touch page frames are allocated. With the queued
     * controller the request's analytic service cost becomes a
     * Transaction enqueued at the channel and its latency emerges from
     * queue occupancy at the epoch drain.
     */
    void submit(const AccessBatch &batch);

    /**
     * One already line-aligned line: the same body as a one-line
     * submit(), under the same engine choice.
     */
    void touchLine(unsigned thread, CpuOp op, Addr line_addr);

    /**
     * Select the engine behind submit() and touchLine() at runtime:
     * batched (default) or the reference per-line loop. Both produce
     * bit-identical results, scattered pages included; the toggle
     * exists for the equivalence tests and the benches' --per-line
     * flag.
     */
    void setBatchedAccess(bool on) { batched_ = on; }
    bool batchedAccess() const { return batched_; }

    /** Process-wide default for newly constructed systems. */
    static void setBatchedAccessDefault(bool on);

    /**
     * Asynchronous bulk copy through the DMA engines (Section VII-B's
     * future direction). Generates the same device traffic as a CPU
     * copy but occupies no CPU issue slots or MLP: the copy overlaps
     * with whatever the threads are doing, bounded by the engines'
     * aggregate bandwidth and the device resources. Destination lines
     * are invalidated in the LLC for coherence.
     */
    void dmaCopy(Addr dst, Addr src, Bytes bytes);
    ///@}

    /** @name Execution control */
    ///@{
    void setActiveThreads(unsigned n);
    unsigned activeThreads() const { return activeThreads_; }

    /**
     * Charge pure compute time to the current epoch: the epoch will
     * last at least this long regardless of memory traffic. Used by the
     * DNN executor for compute-bound kernels.
     */
    void addComputeTime(double seconds);

    /** Force an epoch boundary now. */
    void advanceEpoch();

    /** Flush LLC + NVRAM write buffers and close the epoch. */
    void quiesce();

    /** Simulated seconds since construction (or last resetTime). */
    double now() const { return now_; }

    /** Zero counters and traces, keep cache/LLC state (post-warmup). */
    void resetCounters();
    ///@}

    /** @name Observation */
    ///@{
    /** Aggregated uncore counters over all channels. */
    PerfCounters counters() const;

    /** Per-epoch bandwidth / tag-event trace. */
    const TimeSeries &trace() const { return trace_; }
    TimeSeries &trace() { return trace_; }

    /** Enable/disable per-epoch trace recording (on by default). */
    void recordTrace(bool on) { recordTrace_ = on; }

    /**
     * Attach the observability layer (src/obs): registers every
     * component's stats into the observer's registry, wires the
     * set-conflict profiler into the DRAM caches when requested, and
     * turns on the per-request/per-epoch hooks. Unobserved (the
     * default), every hook is one null-pointer test and the system's
     * outputs are bit-identical to a build without the obs layer.
     * The observer is not owned and must outlive the system or be
     * detached first.
     */
    void attachObserver(obs::Observer *observer);
    void detachObserver();
    obs::Observer *observer() { return obs_; }

    /**
     * Attach a telemetry collector (obs/telemetry/telemetry.hh): at
     * every epoch boundary it receives the per-channel counter blocks,
     * and every demand request's latency feeds its percentile sketch.
     * Unlike attachObserver() this does NOT force the per-line access
     * engine — the batched engine reports identical bulk latencies —
     * so telemetry collection keeps full sweep performance. Closes the
     * open epoch first so the collector starts on a clean boundary.
     * Not owned; must outlive the system or be detached first.
     */
    void attachTelemetry(obs::TelemetryRun *telemetry);
    void detachTelemetry() { tel_ = nullptr; }
    obs::TelemetryRun *telemetry() { return tel_; }

    const SystemConfig &config() const { return config_; }
    const Llc &llc() const { return llc_; }
    Llc &llc() { return llc_; }
    ChannelController &channel(unsigned i) { return channels_[i]; }
    const ChannelController &
    channel(unsigned i) const
    {
        return channels_[i];
    }
    unsigned numChannels() const
    {
        return static_cast<unsigned>(channels_.size());
    }

    /** Which pool backs @p addr (meaningful in 1LM). */
    MemPool poolOf(Addr addr) const;

    /** Channel index serving @p addr. */
    unsigned channelOf(Addr addr) const;

    /** @name Faults and graceful degradation */
    ///@{
    /** Machine-level record of injections, poison flow and throttling. */
    const FaultLog &faultLog() const { return faultLog_; }

    /** Is the line at @p addr (virtual) currently poisoned? */
    bool isPoisoned(Addr addr);

    /** Number of currently poisoned lines. */
    std::size_t poisonedLines() const { return poisoned_.size(); }

    /**
     * Take channel @p idx offline (a failed DIMM / disabled channel):
     * its buffers are drained, every 2LM cache is invalidated (the
     * interleave map changes, a reconfiguration event), and all
     * subsequent traffic re-interleaves across the surviving channels,
     * which re-solves epoch timing with the reduced parallelism and
     * bandwidth. Capacity bookkeeping is unchanged — the model answers
     * "what does losing a channel's bandwidth cost", not "what fits".
     */
    void offlineChannel(unsigned idx);

    /** Indices of the channels still online, in interleave order. */
    const std::vector<unsigned> &onlineChannels() const { return online_; }
    ///@}

    /**
     * Virtual-to-physical translation. Identity unless scatterPages is
     * configured, in which case frames are assigned first-touch in
     * pseudo-random order within the address's pool.
     */
    Addr translate(Addr addr);

    /** Total media write amplification across NVRAM DIMMs. */
    double nvramWriteAmplification() const;
    ///@}

  private:
    /**
     * Route one line-sized LLC request to its channel.
     * @param charge_demand account the request's latency against the
     *        CPU demand model (false for DMA-engine traffic)
     */
    void issueToImc(MemRequestKind kind, Addr line_addr, unsigned thread,
                    bool charge_demand = true);

    /**
     * Queued controller: enqueue one device request that the channel
     * has already served analytically, @p service being its analytic
     * latency. A posted demand write is charged now; a read's latency
     * is charged at its completion. @p tag indexes txCausal_, or -1.
     */
    void enqueueTx(ChannelController &ch, MemRequestKind kind, Addr local,
                   double service, unsigned thread, bool charge_demand,
                   std::int32_t tag = -1);

    /** submit() and touchLine() must take the per-line reference. */
    bool
    referenceEngine() const
    {
        return !batched_ || obs_ || faultEnabled_ || maintEnabled_;
    }

    /**
     * One demand line, the body both engines share: LLC, then the
     * device request of a miss, an NT store or a dirty victim, then
     * the epoch check. @p Fast issues through issueFast(); otherwise
     * through issueToImc() with every per-request hook.
     */
    template <bool Fast>
    void accessLine(unsigned thread, CpuOp op, Addr line_addr);

    /**
     * Batched engine's one-line device request: translate, route and
     * ChannelController::handleFast(), charging the latency as demand
     * (or, queued, enqueueing it). No MemRequest, AccessResult or
     * fault plumbing.
     */
    void issueFast(MemRequestKind kind, Addr line_addr,
                   std::uint16_t thread);

    /**
     * Batched engine behind submit(): @p lines consecutive lines from
     * @p first, guaranteed not to cross an epoch boundary. Only called
     * when no observer is attached and faults, maintenance and the
     * queued controller are off (queued submits go line by line). Segments the run by virtual page (one
     * translate() per segment, which allocates a first-touched frame
     * exactly where the per-line loop's first miss would), then by
     * physical interleave chunk and pool, and executes every LLC
     * outcome (device single, coalesced 1LM device run, dirty-victim
     * writeback, LLC hit) against the channels at once, accumulating
     * latency in the per-line loop's order. Dirty victims are LLC
     * (virtual) addresses and are translated before routing.
     */
    void fastRange(unsigned thread, CpuOp op, Addr first,
                   std::uint64_t lines);

    void finishEpoch();
    void maybeFinishEpoch();

    /** Physical address of channel-local @p local on channel @p ch. */
    Addr physOfLocal(unsigned ch, Addr local) const;

    /** Record a request's injected faults; track poison by phys line. */
    void noteRequestFaults(const RequestFaults &f, MemRequestKind kind,
                           Addr phys, unsigned ch, bool charge_demand);

    void addPoison(Addr phys_line, bool propagated);
    void clearPoison(Addr phys_line);

    /** @name Queued controller (config_.controller.queued())
     * In queued mode each controller request is enqueued as it issues.
     * The channel still runs its analytic model first (counters,
     * faults and device state are identical), and its latency becomes
     * the Transaction's service time. Arrivals are spaced by the
     * offered bandwidth on an epoch-relative clock. LLC hits and posted
     * writes charge their latency at their program position, exactly
     * as in analytic mode; a read's latency (analytic service plus
     * queue wait plus bank penalty) lands via onTxComplete() when its
     * queue issues it: under backpressure inside a later enqueue, or
     * when runQueuedDrain() empties the channels in fixed order at the
     * epoch boundary. Single-threaded, so output is byte-identical at
     * any --jobs.
     */
    ///@{
    /** Causal-trace state of one sampled queued request. */
    struct PendingCausal
    {
        MemRequestKind kind = MemRequestKind::LlcRead;
        CacheOutcome outcome = CacheOutcome::Hit;
        /** The analytic spans captured at issue; the queue spans are
         *  appended at completion. */
        CausalBreakdown breakdown;
        double latency = 0;    //!< queue-aware total, set at completion
        unsigned channel = 0;  //!< set at completion
    };

    /**
     * Epoch boundary: drain every channel's queues in fixed order,
     * emit the sampled requests' causal records in completion order
     * and restart the arrival clock.
     */
    void runQueuedDrain();

    /** Completion callback from channel @p ch_idx's transaction queue. */
    void onTxComplete(unsigned ch_idx, const Transaction &tx,
                      const CompletionInfo &info);

    /**
     * Bytes/second of demand the queued controller sees: the explicit
     * controller.offered_gbs knob when set, otherwise the demand-side
     * aggregate issue capability (activeThreads x per-thread issue
     * bandwidth).
     */
    double offeredBandwidth() const;
    ///@}

    SystemConfig config_;
    std::vector<ChannelController> channels_;
    Llc llc_;

    // Address space layout: [0, dramPoolSize_) is the DRAM pool (1LM
    // only), [dramPoolSize_, dramPoolSize_ + nvramPoolSize_) is NVRAM.
    // In 2LM the DRAM pool has size zero. With scatterPages both
    // sizes are rounded down to whole pages.
    Bytes dramPoolSize_ = 0;
    Bytes nvramPoolSize_ = 0;
    Addr dramBrk_ = 0;   //!< next free DRAM pool byte
    Addr nvramBrk_ = 0;  //!< next free NVRAM pool byte (absolute)

    unsigned activeThreads_ = 1;
    double now_ = 0;

    // Epoch accumulators.
    Bytes epochDemandBytes_ = 0;
    double epochLatencyWork_ = 0;   //!< sum of per-line latencies
    Bytes epochLoadBytes_ = 0;      //!< demand load/RFO bytes
    Bytes epochNtStoreBytes_ = 0;   //!< demand NT store bytes
    Bytes epochDmaBytes_ = 0;       //!< bytes copied by the engines
    double epochComputeFloor_ = 0;  //!< min duration from compute
    PerfCounters lastSample_;       //!< counters at last epoch boundary

    /**
     * Per-run cached channel-interleave routing. channelOf() and the
     * channel-local address each cost integer divisions when computed
     * from config_ every line; caching the granularity's log2 (when it
     * is a power of two, the common case) and the online-channel count
     * turns the per-line routing into shift/mask plus ONE division —
     * and both engines share it, so the per-line and batched paths
     * provably route identically. Rebuilt whenever online_ changes.
     */
    struct InterleaveMap
    {
        Addr gran = 1;
        Addr granMask = 0;
        int granShift = -1;  //!< >= 0 iff gran is a power of two
        std::size_t nOnline = 1;

        void
        rebuild(Addr granularity, std::size_t n_online)
        {
            gran = granularity ? granularity : 1;
            nOnline = n_online ? n_online : 1;
            granShift = -1;
            granMask = 0;
            if ((gran & (gran - 1)) == 0) {
                granMask = gran - 1;
                granShift = 0;
                while ((Addr{1} << granShift) != gran)
                    ++granShift;
            }
        }

        /** Interleave position (index into online_) of @p phys. */
        std::size_t
        pos(Addr phys) const
        {
            const Addr chunk =
                granShift >= 0 ? phys >> granShift : phys / gran;
            return static_cast<std::size_t>(chunk % nOnline);
        }

        /**
         * Position plus channel-local address. Pow2 path: one udiv
         * (quotient and remainder of chunk / nOnline come from the
         * same division); local = floor(chunk / n) * gran + offset,
         * identical to the historical
         * (phys / (gran * n)) * gran + phys % gran
         * by the nested floor-division identity.
         */
        std::size_t
        route(Addr phys, Addr &local) const
        {
            if (granShift >= 0) {
                const Addr chunk = phys >> granShift;
                const Addr q = chunk / nOnline;
                local = (q << granShift) | (phys & granMask);
                return static_cast<std::size_t>(chunk - q * nOnline);
            }
            const Addr chunk = phys / gran;
            local = (chunk / nOnline) * gran + phys % gran;
            return static_cast<std::size_t>(chunk % nOnline);
        }
    };

    bool recordTrace_ = true;
    bool batched_;  //!< submit() engine (see setBatchedAccess)
    InterleaveMap imap_;
    TimeSeries trace_;
    obs::Observer *obs_ = nullptr;  //!< optional, not owned
    obs::TelemetryRun *tel_ = nullptr;  //!< optional, not owned
    std::vector<PerfCounters> telScratch_;  //!< per-channel blocks

    // Fault state. faultEnabled_ caches config_.fault.enabled() so the
    // hot paths pay one predictable branch on a fault-free machine.
    bool faultEnabled_ = false;
    // Cached config_.maintenance.enabled(): maintenance produces fault
    // side effects (scrub UEs, retirement) and per-epoch bookkeeping,
    // so it forces the same reference paths fault injection does.
    bool maintEnabled_ = false;
    FaultLog faultLog_;
    // Cached config_.controller.queued(): forces the reference engine
    // and routes controller requests through the channel queues.
    bool queued_ = false;
    double txArrival_ = 0;  //!< next arrival time (epoch seconds)
    std::vector<PendingCausal> txCausal_;  //!< by Transaction::tag
    std::vector<std::int32_t> txTraced_;   //!< tags, completion order
    std::unordered_set<Addr> poisoned_;     //!< poisoned phys lines
    std::vector<unsigned> online_;          //!< online channel indices
    std::vector<ChannelEpoch> epochScratch_;

    // First-touch scattered paging state (only used with
    // config_.scatterPages). Each pool owns a frame pool permuted
    // incrementally; pageMap_ holds virtual page -> physical page.
    struct PagePool
    {
        std::vector<std::uint32_t> frames;  //!< shuffled lazily
        std::size_t next = 0;               //!< frames consumed
    };
    Bytes pageSize_ = 0;  //!< scaled page; 0 without scatterPages
    std::vector<std::uint32_t> pageMap_;  //!< ~0u = unmapped
    PagePool dramFrames_;
    PagePool nvramFrames_;
    std::uint64_t pageRng_ = 0;

    std::uint32_t allocFrame(PagePool &pool);
};

/**
 * The canonical way to build a system from a declarative config:
 * validate() first (so every nonsense knob, including an unknown cache
 * policy, fails before any state is built), then construct. Heap
 * allocation because MemorySystem pins itself (observers and stats
 * hold pointers into it), so it must never move after construction.
 */
std::unique_ptr<MemorySystem> makeSystem(const SystemConfig &config);

} // namespace nvsim

#endif // NVSIM_SYS_MEMSYS_HH
