/**
 * @file
 * Reference oracle for the queue-engine fuzzer (test_scheduler_fuzz):
 * the deque-based ChannelTxQueue and its three schedulers as they
 * stood before the engine moved to fixed-capacity ring queues with a
 * derived starvation count. Kept verbatim apart from the namespace,
 * `inline` on out-of-class members and a local scheduler factory in
 * place of the registry; the production engine must reproduce every
 * completion and statistic of this one.
 */

#ifndef NVSIM_TESTS_REF_DEQUE_TX_QUEUE_HH
#define NVSIM_TESTS_REF_DEQUE_TX_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/logging.hh"
#include "imc/scheduler.hh"

namespace nvsim::ref
{

/** A transaction staged in a controller queue. */
struct QueuedTx
{
    Transaction tx;
    std::uint64_t seq = 0;        //!< global arrival sequence number
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
    /** Times a younger request issued ahead of this one (frfcfs). */
    std::uint32_t bypassed = 0;
    /** Same-queue occupancy when this transaction arrived. */
    std::uint32_t depthAtEnqueue = 0;
    /** Spent time queued behind an active WPQ drain burst. */
    bool drainStalled = false;
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

    virtual SchedulerPick pick(const std::deque<QueuedTx> &reads,
                               const std::deque<QueuedTx> &writes,
                               bool draining,
                               const std::vector<BankState> &banks,
                               const ControllerConfig &cfg) = 0;
};

/**
 * Strict arrival order across both queues: the oldest transaction in
 * the channel issues next, reads and writes alike. The baseline that
 * makes the cost of not draining writes opportunistically visible.
 */
class FcfsScheduler : public ChannelScheduler
{
  public:
    const char *kindName() const override { return "fcfs"; }

    SchedulerPick
    pick(const std::deque<QueuedTx> &reads,
         const std::deque<QueuedTx> &writes, bool,
         const std::vector<BankState> &, const ControllerConfig &) override
    {
        if (reads.empty())
            return {true, 0};
        if (writes.empty())
            return {false, 0};
        return reads.front().seq < writes.front().seq
                   ? SchedulerPick{false, 0}
                   : SchedulerPick{true, 0};
    }
};

/**
 * Reads first; the WPQ only issues while a drain burst is active
 * (high/low watermark hysteresis, maintained by the queue engine) or
 * when no read is waiting. The Cascade Lake-style posted-write model.
 */
class ReadPriorityScheduler : public ChannelScheduler
{
  public:
    const char *kindName() const override { return "read_priority"; }

    SchedulerPick
    pick(const std::deque<QueuedTx> &reads,
         const std::deque<QueuedTx> &writes, bool draining,
         const std::vector<BankState> &, const ControllerConfig &) override
    {
        if (!writes.empty() && (draining || reads.empty()))
            return {true, 0};
        (void)reads;
        return {false, 0};
    }
};

/**
 * First-ready FCFS: choose the queue like read_priority, then within
 * the queue prefer the oldest transaction targeting an open row. A
 * request bypassed starvationCap times must issue next, so row-hit
 * streams cannot starve an unlucky bank forever.
 */
class FrfcfsScheduler : public ChannelScheduler
{
  public:
    const char *kindName() const override { return "frfcfs"; }

    SchedulerPick
    pick(const std::deque<QueuedTx> &reads,
         const std::deque<QueuedTx> &writes, bool draining,
         const std::vector<BankState> &banks,
         const ControllerConfig &cfg) override
    {
        const bool from_writes =
            !writes.empty() && (draining || reads.empty());
        const std::deque<QueuedTx> &q = from_writes ? writes : reads;
        if (q.front().bypassed >= cfg.starvationCap)
            return {from_writes, 0};
        for (std::size_t i = 0; i < q.size(); ++i) {
            const BankState &b = banks[q[i].bank];
            if (b.rowValid && b.openRow == q[i].row)
                return {from_writes, i};
        }
        return {from_writes, 0};
    }
};

/** The reference scheduler registered as @p kind in production. */
inline std::unique_ptr<ChannelScheduler>
makeScheduler(const std::string &kind)
{
    if (kind == "fcfs")
        return std::make_unique<FcfsScheduler>();
    if (kind == "read_priority")
        return std::make_unique<ReadPriorityScheduler>();
    if (kind == "frfcfs")
        return std::make_unique<FrfcfsScheduler>();
    return nullptr;
}

/**
 * One channel's queue engine. Single-threaded, like the controller
 * that owns it: the MemorySystem drives it from the deterministic
 * epoch-end drain, so queued-mode output is byte-identical at any
 * --jobs by construction.
 *
 * Time model: the engine keeps an epoch-relative clock. enqueue()
 * advances it to the transaction's arrival and, when the target queue
 * is full, services queued work first — backpressure surfaces as
 * queue wait, exactly the WillAcceptTransaction contract. Each issue
 * start is max(clock, bus free, bank free, arrival); a row mismatch
 * adds the conflict penalty; refresh blocks one bank per tREFI/banks
 * in a staggered round-robin (per-bank refresh windows, not the
 * analytic epoch-mean stall).
 */
class ChannelTxQueue
{
  public:
    ChannelTxQueue(const ControllerConfig &config, double busBandwidth,
                   const RefreshConfig &refresh);

    /** Backpressure probe: room in @p kind's queue right now? */
    bool willAccept(TransactionKind kind) const;

    /**
     * Hand over a transaction. Advances the clock to tx.arrival; when
     * the target queue is full, services queued transactions until a
     * slot frees (their completions fire from inside this call).
     */
    void enqueue(const Transaction &tx);

    /** Service queued transactions whose issue time is <= @p until. */
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
    /** Issue the scheduler's next pick; fires its completion. */
    void serviceOne();

    /** Apply staggered per-bank refresh events up to time @p t. */
    void applyRefresh(double t);

    std::uint32_t bankOf(Addr addr) const;
    std::uint64_t rowOf(Addr addr) const;

    ControllerConfig cfg_;
    double busBandwidth_;
    RefreshConfig refresh_;
    std::unique_ptr<ChannelScheduler> sched_;
    CompletionHandler onComplete_;

    std::deque<QueuedTx> reads_;
    std::deque<QueuedTx> writes_;
    std::vector<BankState> banks_;
    double clock_ = 0;        //!< last issue start (epoch seconds)
    double busFreeAt_ = 0;
    double refreshAt_ = 0;    //!< next staggered refresh event time
    std::uint32_t refreshBank_ = 0;
    std::uint64_t seq_ = 0;
    bool draining_ = false;

    TxQueueStats stats_;
};

inline ChannelTxQueue::ChannelTxQueue(const ControllerConfig &config,
                               double busBandwidth,
                               const RefreshConfig &refresh)
    : cfg_(config), busBandwidth_(busBandwidth), refresh_(refresh),
      sched_(makeScheduler(config.scheduler)),
      banks_(config.banks)
{
    if (!sched_)
        panic("ChannelTxQueue built for the analytic scheduler");
    if (refresh_.enabled())
        refreshAt_ = refresh_.trefi / cfg_.banks;
}

inline bool
ChannelTxQueue::willAccept(TransactionKind kind) const
{
    if (kind == TransactionKind::Read)
        return reads_.size() < cfg_.readQueueEntries;
    return writes_.size() < cfg_.writeQueueEntries;
}

inline void
ChannelTxQueue::setCompletionHandler(CompletionHandler handler)
{
    onComplete_ = std::move(handler);
}

inline std::uint32_t
ChannelTxQueue::bankOf(Addr addr) const
{
    return static_cast<std::uint32_t>((addr / cfg_.rowBytes) %
                                      cfg_.banks);
}

inline std::uint64_t
ChannelTxQueue::rowOf(Addr addr) const
{
    return addr / (cfg_.rowBytes * cfg_.banks);
}

inline void
ChannelTxQueue::applyRefresh(double t)
{
    if (!refresh_.enabled())
        return;
    // One REF per tREFI, rotated across the banks: each bank gets its
    // window every tREFI, offset by bank index — per-bank refresh
    // instead of the analytic epoch-mean duty stall.
    const double step = refresh_.trefi / cfg_.banks;
    while (refreshAt_ <= t) {
        BankState &b = banks_[refreshBank_];
        b.freeAt = std::max(b.freeAt, refreshAt_) + refresh_.trfc;
        b.rowValid = false;  // refresh closes the row
        refreshBank_ = (refreshBank_ + 1) % cfg_.banks;
        refreshAt_ += step;
    }
}

inline void
ChannelTxQueue::enqueue(const Transaction &tx)
{
    while (!willAccept(tx.kind))
        serviceOne();  // backpressure: arrival waits as queue latency

    QueuedTx q;
    q.tx = tx;
    q.seq = seq_++;
    q.bank = bankOf(tx.addr);
    q.row = rowOf(tx.addr);
    q.drainStalled = draining_;
    std::deque<QueuedTx> &dest =
        tx.kind == TransactionKind::Read ? reads_ : writes_;
    q.depthAtEnqueue = static_cast<std::uint32_t>(dest.size());
    dest.push_back(q);

    stats_.maxReadDepth = std::max(
        stats_.maxReadDepth, static_cast<std::uint32_t>(reads_.size()));
    stats_.maxWriteDepth = std::max(
        stats_.maxWriteDepth,
        static_cast<std::uint32_t>(writes_.size()));

    // Drain-burst hysteresis: enter at the high watermark; serviceOne()
    // exits at the low one. Reads arriving during the burst will wait
    // behind it, which is what drainStalled records.
    if (!draining_ && writes_.size() >= cfg_.drainHighWatermark) {
        draining_ = true;
        ++stats_.writeDrains;
        for (QueuedTx &r : reads_)
            r.drainStalled = true;
    }
}

inline void
ChannelTxQueue::serviceOne()
{
    if (reads_.empty() && writes_.empty())
        return;

    SchedulerPick p =
        sched_->pick(reads_, writes_, draining_, banks_, cfg_);
    std::deque<QueuedTx> &q = p.fromWrites ? writes_ : reads_;
    QueuedTx chosen = q[p.index];
    if (p.index != 0) {
        // A younger (or same-age, different-bank) request bypassed
        // everything ahead of it: count that against the starvation
        // cap of each passed-over transaction.
        for (std::size_t i = 0; i < p.index; ++i)
            ++q[i].bypassed;
    }
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(p.index));

    applyRefresh(std::max(clock_, chosen.tx.arrival));
    BankState &bank = banks_[chosen.bank];
    double start = std::max(
        std::max(clock_, chosen.tx.arrival),
        std::max(busFreeAt_, bank.freeAt));

    const bool row_hit = bank.rowValid && bank.openRow == chosen.row;
    const double penalty = row_hit ? 0.0 : cfg_.bankConflictPenalty;
    const bool conflict = bank.rowValid && !row_hit;
    const double complete = start + penalty + chosen.tx.service;

    bank.freeAt = complete;
    bank.openRow = chosen.row;
    bank.rowValid = true;
    busFreeAt_ = start + static_cast<double>(kLineSize) / busBandwidth_;
    clock_ = start;

    if (chosen.tx.kind == TransactionKind::Read) {
        ++stats_.completedReads;
        stats_.readQueueWait += start - chosen.tx.arrival;
    } else {
        ++stats_.completedWrites;
        if (draining_ && writes_.size() <= cfg_.drainLowWatermark)
            draining_ = false;
    }
    if (row_hit)
        ++stats_.rowBufferHits;
    if (conflict)
        ++stats_.bankConflicts;

    if (onComplete_) {
        CompletionInfo info;
        info.enqueueTime = chosen.tx.arrival;
        info.issueTime = start;
        info.completeTime = complete;
        info.latency.service = chosen.tx.service;
        info.latency.queueWait = start - chosen.tx.arrival;
        info.latency.bankPenalty = penalty;
        info.rowBufferHit = row_hit;
        info.bankConflict = conflict;
        info.drainStalled = chosen.drainStalled;
        info.queueDepth = chosen.depthAtEnqueue;
        onComplete_(chosen.tx, info);
    }
}

inline void
ChannelTxQueue::tick(double until)
{
    while (!reads_.empty() || !writes_.empty()) {
        if (clock_ > until)
            break;
        serviceOne();
    }
}

inline void
ChannelTxQueue::drainAll()
{
    while (!reads_.empty() || !writes_.empty())
        serviceOne();
}

inline void
ChannelTxQueue::resetEpoch()
{
    if (!reads_.empty() || !writes_.empty())
        panic("ChannelTxQueue::resetEpoch with queued work pending");
    for (BankState &b : banks_)
        b = BankState{};
    clock_ = 0;
    busFreeAt_ = 0;
    refreshBank_ = 0;
    refreshAt_ = refresh_.enabled() ? refresh_.trefi / cfg_.banks : 0;
    seq_ = 0;
    draining_ = false;
}

inline TxQueueStats
ChannelTxQueue::takeStats()
{
    TxQueueStats out = stats_;
    stats_ = TxQueueStats{};
    return out;
}

} // namespace nvsim::ref

#endif // NVSIM_TESTS_REF_DEQUE_TX_QUEUE_HH
