/**
 * @file
 * Queued channel controller: per-channel read queue, write-pending
 * queue (WPQ) and bank-level parallelism state, with the scheduling
 * decision behind a string-keyed ChannelScheduler registry.
 *
 * The analytic model (the paper's Table I) prices every access at a
 * fixed sum of device latencies, so it cannot say what happens to p99
 * when a channel saturates. Here latency *emerges* from occupancy:
 * the MemorySystem enqueues Transactions whose `service` field is the
 * analytic device cost computed by the cache-policy seam, and the
 * queue engine composes queue wait, bus serialization, row-buffer
 * conflicts, WPQ drain bursts and per-bank refresh windows on top.
 * The queue-off limit is therefore exactly the analytic model — which
 * is also a registry entry ("analytic", the degenerate pass-through
 * scheduler that builds no queue at all), so queue-off runs stay
 * byte-identical to the checked-in goldens.
 *
 * Interface shape follows dramsim3/ramulator2: willAccept() is the
 * backpressure probe, enqueue() hands over a transaction, tick()
 * advances the clock, and a completion callback reports the
 * CompletionInfo timing story. Schedulers: fcfs, read_priority (with
 * write-drain high/low watermarks), frfcfs (row-hit first with a
 * starvation cap).
 */

#ifndef NVSIM_IMC_SCHEDULER_HH
#define NVSIM_IMC_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.hh"
#include "imc/transaction.hh"
#include "mem/maintenance/maintenance.hh"

namespace nvsim
{

/**
 * The `controller` JSON config block: queued-mode selection and the
 * queue/bank/drain geometry. The default scheduler "analytic" is the
 * degenerate pass-through — no queues are built and every access path
 * behaves exactly as before, byte-for-byte.
 */
struct ControllerConfig
{
    /** Registry key; see ChannelSchedulerRegistry::names(). */
    std::string scheduler = "analytic";
    /** Read-queue entries per channel. */
    unsigned readQueueEntries = 32;
    /** Write-pending-queue entries per channel. */
    unsigned writeQueueEntries = 64;
    /** Banks per channel (bank-level parallelism width). */
    unsigned banks = 16;
    /** Bytes per DRAM row (row-buffer hit granularity). */
    Bytes rowBytes = 8 * kKiB;
    /** WPQ occupancy that starts a write-drain burst. */
    unsigned drainHighWatermark = 48;
    /** WPQ occupancy at which a drain burst stops. */
    unsigned drainLowWatermark = 16;
    /** frfcfs: row hits may bypass an older request at most this many
     *  times before the older request must issue. */
    unsigned starvationCap = 8;
    /** Extra seconds a row-buffer conflict costs (precharge+activate). */
    double bankConflictPenalty = 30e-9;
    /**
     * Offered load in GB/s used to space transaction arrivals inside
     * an epoch. 0 derives it from the run's active thread count times
     * the per-thread issue bandwidth — i.e. the demand the analytic
     * model already assumes.
     */
    double offeredGBs = 0;

    /** Is a real queue engine in the path? */
    bool queued() const { return scheduler != "analytic"; }

    /** Reject unknown schedulers and nonsensical geometry. */
    void validate() const;
};

/** Open-row state of one bank, visible to schedulers. */
struct BankState
{
    double freeAt = 0;            //!< busy until (epoch seconds)
    std::uint64_t openRow = 0;
    bool rowValid = false;        //!< any row open since last refresh
};

/** A transaction staged in a controller queue. */
struct QueuedTx
{
    Transaction tx;
    std::uint64_t seq = 0;        //!< global arrival sequence number
    std::uint64_t row = 0;
    std::uint32_t bank = 0;
    /** Same-queue occupancy when this transaction arrived. */
    std::uint32_t depthAtEnqueue = 0;
    /** The queue's pick count when this transaction arrived. */
    std::uint32_t picksAtEnqueue = 0;
    /** Spent time queued behind an active WPQ drain burst. */
    bool drainStalled = false;
};

/**
 * One controller queue (read queue or WPQ): transactions in arrival
 * order, index 0 the oldest, held in a ring of exactly `capacity`
 * slots allocated at construction. Nothing grows: the controller
 * checks full() before every push. Removing a transaction from the
 * middle shifts whichever side of it is shorter, so the common pick
 * of the oldest entry moves nothing.
 *
 * The queue also counts its picks, which makes the FR-FCFS starvation
 * count O(1): every transaction that was older than the front one when
 * it arrived (depthAtEnqueue of them) has issued since, so each other
 * pick made since its arrival issued a younger transaction ahead of it.
 */
class TxAgeQueue
{
  public:
    explicit TxAgeQueue(std::size_t capacity) : slots_(capacity) {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == slots_.size(); }

    /** The @p i-th oldest queued transaction. */
    const QueuedTx &operator[](std::size_t i) const { return slots_[at(i)]; }
    QueuedTx &operator[](std::size_t i) { return slots_[at(i)]; }
    const QueuedTx &front() const { return slots_[head_]; }

    /** Append @p q as the youngest; stamps its arrival bookkeeping. */
    void
    push(QueuedTx q)
    {
        q.depthAtEnqueue = static_cast<std::uint32_t>(size_);
        q.picksAtEnqueue = picks_;
        slots_[at(size_)] = q;
        ++size_;
    }

    /** Index of the oldest entry satisfying @p pred, or size(). */
    template <class Pred>
    std::size_t
    findFirst(Pred pred) const
    {
        // Walk the ring as its two contiguous runs: head to the end of
        // the storage, then the wrapped part from slot 0.
        const std::size_t run = std::min(size_, slots_.size() - head_);
        const QueuedTx *p = slots_.data() + head_;
        for (std::size_t i = 0; i < run; ++i)
            if (pred(p[i]))
                return i;
        for (std::size_t i = run; i < size_; ++i)
            if (pred(slots_[i - run]))
                return i;
        return size_;
    }

    /** Remove and return the @p i-th oldest; counts as one pick. */
    QueuedTx take(std::size_t i);

    /** Times a younger transaction issued ahead of front(). */
    std::uint32_t
    frontBypassed() const
    {
        // Unsigned wrap-around keeps the difference exact.
        return picks_ - front().picksAtEnqueue - front().depthAtEnqueue;
    }

  private:
    std::size_t
    at(std::size_t i) const
    {
        const std::size_t j = head_ + i;
        return j < slots_.size() ? j : j - slots_.size();
    }

    std::vector<QueuedTx> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::uint32_t picks_ = 0;
};

/** A scheduler's decision: which queue, which position. */
struct SchedulerPick
{
    bool fromWrites = false;
    std::size_t index = 0;
};

/**
 * The scheduling policy seam: given both queues, the drain-burst flag
 * and the bank state, choose the next transaction to issue. Called
 * only when at least one queue is non-empty; implementations must be
 * deterministic pure functions of their arguments.
 */
class ChannelScheduler
{
  public:
    virtual ~ChannelScheduler() = default;

    /** Registry key this scheduler was constructed under. */
    virtual const char *kindName() const = 0;

    virtual SchedulerPick pick(const TxAgeQueue &reads,
                               const TxAgeQueue &writes,
                               bool draining,
                               const std::vector<BankState> &banks,
                               const ControllerConfig &cfg) = 0;
};

/**
 * String-keyed scheduler factory, mirroring CachePolicyRegistry.
 * "analytic" is registered with a factory that returns nullptr: the
 * controller interprets that as "build no queue engine", which is the
 * degenerate scheduler whose output is the analytic model itself.
 */
class ChannelSchedulerRegistry
{
  public:
    using Factory =
        std::unique_ptr<ChannelScheduler> (*)(const ControllerConfig &);

    /** The process-wide registry (built-ins pre-registered). */
    static ChannelSchedulerRegistry &instance();

    /** Register @p kind; re-registration of a known kind is fatal. */
    void add(const std::string &kind, const std::string &description,
             Factory factory);

    bool known(const std::string &kind) const;

    /** Registered kinds, in registration order. */
    std::vector<std::string> names() const;

    /** One-line description of @p kind (empty if unknown). */
    std::string description(const std::string &kind) const;

    /**
     * Construct @p config.scheduler. Unknown kinds are fatal, listing
     * the registered names. Returns nullptr for the degenerate
     * "analytic" entry.
     */
    std::unique_ptr<ChannelScheduler> create(
        const ControllerConfig &config) const;

  private:
    struct Entry
    {
        std::string kind;
        std::string description;
        Factory factory;
    };
    std::vector<Entry> entries_;

    const Entry *find(const std::string &kind) const;
};

/** Queue-engine statistics, harvested into PerfCounters per epoch. */
struct TxQueueStats
{
    double readQueueWait = 0;  //!< summed read enqueue-to-issue seconds
    std::uint64_t bankConflicts = 0;
    std::uint64_t rowBufferHits = 0;
    std::uint64_t writeDrains = 0;  //!< drain bursts entered
    std::uint64_t completedReads = 0;
    std::uint64_t completedWrites = 0;
    std::uint32_t maxReadDepth = 0;
    std::uint32_t maxWriteDepth = 0;
};

/**
 * One channel's queue engine. Single-threaded, like the controller
 * that owns it: the MemorySystem feeds it as each request issues and
 * drains it at the epoch boundary in fixed channel order, so
 * queued-mode output is byte-identical at any --jobs by construction.
 *
 * Time model: the engine keeps an epoch-relative clock, the start of
 * the last issue. enqueue() does not move it: a transaction only
 * issues when the target queue is full (backpressure surfaces as
 * queue wait, the WillAcceptTransaction contract), under tick(), or
 * in drainAll(). Each issue start is max(clock, bus free, bank free,
 * arrival); a row mismatch adds the conflict penalty; refresh blocks
 * one bank per tREFI/banks in a staggered round-robin (per-bank
 * refresh windows, not the analytic epoch-mean stall).
 */
class ChannelTxQueue
{
  public:
    ChannelTxQueue(const ControllerConfig &config, double busBandwidth,
                   const RefreshConfig &refresh);

    /** Backpressure probe: room in @p kind's queue right now? */
    bool willAccept(TransactionKind kind) const;

    /**
     * Hand over a transaction. When the target queue is full, services
     * queued transactions until a slot frees (their completions fire
     * from inside this call); otherwise only queues it.
     */
    void enqueue(const Transaction &tx);

    /**
     * Service queued transactions, in scheduler order, while the next
     * pick would start issuing at or before @p until.
     */
    void tick(double until);

    /** Service everything queued (epoch barrier / quiesce). */
    void drainAll();

    /** Completion callback; fires once per transaction, issue order. */
    void setCompletionHandler(CompletionHandler handler);

    /**
     * Reset the epoch-relative time state (clock, bus, banks, refresh
     * cadence) after a full drain; queued-but-unserved work would be
     * orphaned, so callers drainAll() first. Stats are preserved.
     */
    void resetEpoch();

    /** Harvest and zero the accumulated statistics. */
    TxQueueStats takeStats();

    std::size_t readDepth() const { return reads_.size(); }
    std::size_t writeDepth() const { return writes_.size(); }
    bool draining() const { return draining_; }
    double clock() const { return clock_; }
    const ChannelScheduler &scheduler() const { return *sched_; }

  private:
    /** The scheduler's next pick; at least one queue is non-empty. */
    SchedulerPick
    nextPick()
    {
        return sched_->pick(reads_, writes_, draining_, banks_, cfg_);
    }

    /** Issue @p p; fires its completion. */
    void issue(SchedulerPick p);

    /** When @p q would start issuing now; changes no state. */
    double issueStart(const QueuedTx &q) const;

    /** Apply staggered per-bank refresh events up to time @p t. */
    void applyRefresh(double t);

    /**
     * The bank of @p addr and its row within that bank: shift and mask
     * when rowBytes and banks are powers of two, else two divisions.
     */
    void bankRowOf(Addr addr, std::uint32_t &bank,
                   std::uint64_t &row) const;

    ControllerConfig cfg_;
    double busBandwidth_;
    RefreshConfig refresh_;
    std::unique_ptr<ChannelScheduler> sched_;
    CompletionHandler onComplete_;

    TxAgeQueue reads_;
    TxAgeQueue writes_;
    std::vector<BankState> banks_;
    double clock_ = 0;        //!< last issue start (epoch seconds)
    double busFreeAt_ = 0;
    double refreshAt_ = 0;    //!< next staggered refresh event time
    std::uint32_t refreshBank_ = 0;
    int rowShift_ = -1;  //!< log2(rowBytes) when both are powers of two
    int bankShift_ = 0;  //!< log2(banks), valid when rowShift_ >= 0
    std::uint32_t bankMask_ = 0;  //!< banks - 1, likewise
    std::uint64_t seq_ = 0;
    bool draining_ = false;

    TxQueueStats stats_;
};

} // namespace nvsim

#endif // NVSIM_IMC_SCHEDULER_HH
