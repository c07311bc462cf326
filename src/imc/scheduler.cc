#include "imc/scheduler.hh"

#include <algorithm>
#include <bit>
#include <string>

#include "core/logging.hh"

namespace nvsim
{

const char *
transactionKindName(TransactionKind kind)
{
    switch (kind) {
      case TransactionKind::Read:
        return "read";
      case TransactionKind::Write:
        return "write";
    }
    return "?";
}

void
ControllerConfig::validate() const
{
    if (!ChannelSchedulerRegistry::instance().known(scheduler)) {
        std::string known_names;
        for (const std::string &n :
             ChannelSchedulerRegistry::instance().names()) {
            if (!known_names.empty())
                known_names += ", ";
            known_names += n;
        }
        fatal("unknown channel scheduler '%s' (registered: %s)",
              scheduler.c_str(), known_names.c_str());
    }
    if (!queued())
        return;
    if (readQueueEntries == 0 || writeQueueEntries == 0)
        fatal("controller queue entries must be nonzero");
    if (banks == 0)
        fatal("controller banks must be nonzero");
    if (rowBytes < kLineSize)
        fatal("controller rowBytes must be at least one line (%llu B)",
              static_cast<unsigned long long>(kLineSize));
    if (drainLowWatermark >= drainHighWatermark)
        fatal("controller drain watermarks must satisfy low < high "
              "(got low=%u high=%u)",
              drainLowWatermark, drainHighWatermark);
    if (drainHighWatermark > writeQueueEntries)
        fatal("controller drainHighWatermark (%u) exceeds WPQ entries "
              "(%u)",
              drainHighWatermark, writeQueueEntries);
    if (starvationCap == 0)
        fatal("controller starvationCap must be nonzero");
    if (bankConflictPenalty < 0)
        fatal("controller bankConflictPenalty must be nonnegative");
    if (offeredGBs < 0)
        fatal("controller offeredGBs must be nonnegative");
}

namespace
{

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
    pick(const TxAgeQueue &reads, const TxAgeQueue &writes, bool,
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
    pick(const TxAgeQueue &reads, const TxAgeQueue &writes,
         bool draining, const std::vector<BankState> &,
         const ControllerConfig &) override
    {
        if (!writes.empty() && (draining || reads.empty()))
            return {true, 0};
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
    pick(const TxAgeQueue &reads, const TxAgeQueue &writes,
         bool draining, const std::vector<BankState> &banks,
         const ControllerConfig &cfg) override
    {
        const bool from_writes =
            !writes.empty() && (draining || reads.empty());
        const TxAgeQueue &q = from_writes ? writes : reads;
        if (q.frontBypassed() >= cfg.starvationCap)
            return {from_writes, 0};
        const std::size_t hit = q.findFirst([&](const QueuedTx &t) {
            const BankState &b = banks[t.bank];
            return b.rowValid && b.openRow == t.row;
        });
        return {from_writes, hit < q.size() ? hit : 0};
    }
};

std::unique_ptr<ChannelScheduler>
makeAnalytic(const ControllerConfig &)
{
    return nullptr;
}

std::unique_ptr<ChannelScheduler>
makeFcfs(const ControllerConfig &)
{
    return std::make_unique<FcfsScheduler>();
}

std::unique_ptr<ChannelScheduler>
makeReadPriority(const ControllerConfig &)
{
    return std::make_unique<ReadPriorityScheduler>();
}

std::unique_ptr<ChannelScheduler>
makeFrfcfs(const ControllerConfig &)
{
    return std::make_unique<FrfcfsScheduler>();
}

} // namespace

ChannelSchedulerRegistry &
ChannelSchedulerRegistry::instance()
{
    static ChannelSchedulerRegistry reg = [] {
        ChannelSchedulerRegistry r;
        r.add("analytic",
              "degenerate pass-through: no queues, the fixed-cost "
              "Table I model (byte-identical to pre-queue behavior)",
              makeAnalytic);
        r.add("fcfs",
              "strict arrival order across the read queue and WPQ",
              makeFcfs);
        r.add("read_priority",
              "reads first; WPQ drains in high/low watermark bursts",
              makeReadPriority);
        r.add("frfcfs",
              "first-ready FCFS: open-row hits first, with a "
              "starvation cap, over read-priority write drain",
              makeFrfcfs);
        return r;
    }();
    return reg;
}

void
ChannelSchedulerRegistry::add(const std::string &kind,
                              const std::string &description,
                              Factory factory)
{
    if (find(kind))
        fatal("channel scheduler '%s' registered twice", kind.c_str());
    entries_.push_back(Entry{kind, description, factory});
}

bool
ChannelSchedulerRegistry::known(const std::string &kind) const
{
    return find(kind) != nullptr;
}

std::vector<std::string>
ChannelSchedulerRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry &e : entries_)
        out.push_back(e.kind);
    return out;
}

std::string
ChannelSchedulerRegistry::description(const std::string &kind) const
{
    const Entry *e = find(kind);
    return e ? e->description : std::string{};
}

std::unique_ptr<ChannelScheduler>
ChannelSchedulerRegistry::create(const ControllerConfig &config) const
{
    const Entry *e = find(config.scheduler);
    if (!e) {
        std::string known_names;
        for (const Entry &entry : entries_) {
            if (!known_names.empty())
                known_names += ", ";
            known_names += entry.kind;
        }
        fatal("unknown channel scheduler '%s' (registered: %s)",
              config.scheduler.c_str(), known_names.c_str());
    }
    return e->factory(config);
}

const ChannelSchedulerRegistry::Entry *
ChannelSchedulerRegistry::find(const std::string &kind) const
{
    for (const Entry &e : entries_)
        if (e.kind == kind)
            return &e;
    return nullptr;
}

QueuedTx
TxAgeQueue::take(std::size_t i)
{
    const QueuedTx out = (*this)[i];
    if (i < size_ - 1 - i) {
        // Fewer older entries: move them one slot younger-ward and
        // retire the head slot.
        for (std::size_t k = i; k > 0; --k)
            (*this)[k] = (*this)[k - 1];
        head_ = at(1);
    } else {
        for (std::size_t k = i; k + 1 < size_; ++k)
            (*this)[k] = (*this)[k + 1];
    }
    --size_;
    ++picks_;
    return out;
}

ChannelTxQueue::ChannelTxQueue(const ControllerConfig &config,
                               double busBandwidth,
                               const RefreshConfig &refresh)
    : cfg_(config), busBandwidth_(busBandwidth), refresh_(refresh),
      sched_(ChannelSchedulerRegistry::instance().create(config)),
      reads_(config.readQueueEntries), writes_(config.writeQueueEntries),
      banks_(config.banks)
{
    if (!sched_)
        panic("ChannelTxQueue built for the analytic scheduler");
    if (refresh_.enabled())
        refreshAt_ = refresh_.trefi / cfg_.banks;
    if (std::has_single_bit(cfg_.rowBytes) &&
        std::has_single_bit(cfg_.banks)) {
        rowShift_ = std::countr_zero(cfg_.rowBytes);
        bankShift_ = std::countr_zero(cfg_.banks);
        bankMask_ = cfg_.banks - 1;
    }
}

bool
ChannelTxQueue::willAccept(TransactionKind kind) const
{
    return kind == TransactionKind::Read ? !reads_.full()
                                         : !writes_.full();
}

void
ChannelTxQueue::setCompletionHandler(CompletionHandler handler)
{
    onComplete_ = std::move(handler);
}

void
ChannelTxQueue::bankRowOf(Addr addr, std::uint32_t &bank,
                          std::uint64_t &row) const
{
    // Rows interleave across the banks: row-sized chunk r lands in
    // bank r % banks, as row r / banks of that bank.
    if (rowShift_ >= 0) {
        const Addr r = addr >> rowShift_;
        bank = static_cast<std::uint32_t>(r & bankMask_);
        row = r >> bankShift_;
    } else {
        const Addr r = addr / cfg_.rowBytes;
        row = r / cfg_.banks;
        bank = static_cast<std::uint32_t>(r - row * cfg_.banks);
    }
}

void
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

void
ChannelTxQueue::enqueue(const Transaction &tx)
{
    while (!willAccept(tx.kind))
        issue(nextPick());  // backpressure: arrival waits as queue latency

    std::uint32_t bank;
    std::uint64_t row;
    bankRowOf(tx.addr, bank, row);
    (tx.kind == TransactionKind::Read ? reads_ : writes_)
        .push(tx, seq_++, bank, row, draining_);

    stats_.maxReadDepth = std::max(
        stats_.maxReadDepth, static_cast<std::uint32_t>(reads_.size()));
    stats_.maxWriteDepth = std::max(
        stats_.maxWriteDepth,
        static_cast<std::uint32_t>(writes_.size()));

    // Drain-burst hysteresis: enter at the high watermark; issue()
    // exits at the low one. Reads arriving during the burst will wait
    // behind it, which is what drainStalled records.
    if (!draining_ && writes_.size() >= cfg_.drainHighWatermark) {
        draining_ = true;
        ++stats_.writeDrains;
        for (std::size_t i = 0; i < reads_.size(); ++i)
            reads_[i].drainStalled = true;
    }
}

double
ChannelTxQueue::issueStart(const QueuedTx &q) const
{
    // issue() applies the refresh events due by this time first; replay
    // them on a copy of the target bank's free time.
    const double t = std::max(clock_, q.tx.arrival);
    double bank_free = banks_[q.bank].freeAt;
    if (refresh_.enabled()) {
        const double step = refresh_.trefi / cfg_.banks;
        double at = refreshAt_;
        std::uint32_t b = refreshBank_;
        while (at <= t) {
            if (b == q.bank)
                bank_free = std::max(bank_free, at) + refresh_.trfc;
            b = (b + 1) % cfg_.banks;
            at += step;
        }
    }
    return std::max(t, std::max(busFreeAt_, bank_free));
}

void
ChannelTxQueue::issue(SchedulerPick p)
{
    const QueuedTx chosen =
        (p.fromWrites ? writes_ : reads_).take(p.index);

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

void
ChannelTxQueue::tick(double until)
{
    while (!reads_.empty() || !writes_.empty()) {
        const SchedulerPick p = nextPick();
        const TxAgeQueue &q = p.fromWrites ? writes_ : reads_;
        if (issueStart(q[p.index]) > until)
            break;
        issue(p);
    }
}

void
ChannelTxQueue::drainAll()
{
    while (!reads_.empty() || !writes_.empty())
        issue(nextPick());
}

void
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

TxQueueStats
ChannelTxQueue::takeStats()
{
    TxQueueStats out = stats_;
    stats_ = TxQueueStats{};
    return out;
}

} // namespace nvsim
