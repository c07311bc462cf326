/**
 * @file
 * Differential fuzzer for the queue engine: the production
 * ChannelTxQueue (ring queues, derived FR-FCFS starvation count)
 * against the deque-based reference it replaced (ref/deque_tx_queue.hh).
 * Each seeded case draws a scheduler and a random geometry — queue
 * entries 1-64, 1-16 banks (non-powers of two too), watermarks,
 * starvation cap, row size, refresh on or off — and feeds both engines
 * the same read/write stream under backpressure, with epoch barriers
 * (drainAll + resetEpoch) at random points. Every completion must
 * match in order, field for field, and so must the statistics.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rng.hh"
#include "imc/scheduler.hh"
#include "ref/deque_tx_queue.hh"

using namespace nvsim;

namespace
{

constexpr unsigned kCases = 2500;

struct Completion
{
    Transaction tx;
    CompletionInfo info;
};

unsigned
between(Rng &rng, unsigned lo, unsigned hi)
{
    return lo + static_cast<unsigned>(rng.below(hi - lo + 1));
}

ControllerConfig
randomGeometry(Rng &rng)
{
    static const char *const kSchedulers[] = {"fcfs", "read_priority",
                                              "frfcfs"};
    ControllerConfig c;
    c.scheduler = kSchedulers[rng.below(3)];
    c.readQueueEntries = between(rng, 1, 64);
    c.writeQueueEntries = between(rng, 1, 64);
    c.banks = between(rng, 1, 16);
    c.rowBytes = kLineSize * between(rng, 1, 160);
    c.drainHighWatermark = between(rng, 1, c.writeQueueEntries);
    c.drainLowWatermark = between(rng, 0, c.drainHighWatermark - 1);
    c.starvationCap = between(rng, 1, 12);
    c.bankConflictPenalty = rng.below(4) ? 30e-9 * rng.uniform() : 0.0;
    return c;
}

/** Field-by-field equality; doubles must match bit for bit. */
::testing::AssertionResult
sameCompletion(const Completion &a, const Completion &b)
{
    const Transaction &x = a.tx, &y = b.tx;
    const CompletionInfo &p = a.info, &q = b.info;
    if (x.addr != y.addr || x.arrival != y.arrival ||
        x.service != y.service || x.kind != y.kind ||
        x.thread != y.thread || x.chargeDemand != y.chargeDemand ||
        x.tag != y.tag) {
        return ::testing::AssertionFailure()
               << "transaction differs: tag " << x.tag << " vs " << y.tag;
    }
    if (p.enqueueTime != q.enqueueTime || p.issueTime != q.issueTime ||
        p.completeTime != q.completeTime ||
        p.latency.service != q.latency.service ||
        p.latency.queueWait != q.latency.queueWait ||
        p.latency.bankPenalty != q.latency.bankPenalty ||
        p.rowBufferHit != q.rowBufferHit ||
        p.bankConflict != q.bankConflict ||
        p.drainStalled != q.drainStalled ||
        p.queueDepth != q.queueDepth) {
        return ::testing::AssertionFailure()
               << "completion info differs for tag " << x.tag
               << ": issue " << p.issueTime << " vs " << q.issueTime;
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameStats(const TxQueueStats &a, const TxQueueStats &b)
{
    if (a.readQueueWait != b.readQueueWait ||
        a.bankConflicts != b.bankConflicts ||
        a.rowBufferHits != b.rowBufferHits ||
        a.writeDrains != b.writeDrains ||
        a.completedReads != b.completedReads ||
        a.completedWrites != b.completedWrites ||
        a.maxReadDepth != b.maxReadDepth ||
        a.maxWriteDepth != b.maxWriteDepth) {
        return ::testing::AssertionFailure() << "queue statistics differ";
    }
    return ::testing::AssertionSuccess();
}

/** Run case @p seed; failures name the seed and the geometry. */
void
fuzzCase(std::uint64_t seed)
{
    Rng rng(seed);
    const ControllerConfig cfg = randomGeometry(rng);
    RefreshConfig refresh;
    if (rng.below(2)) {
        refresh.trefi = 0.5e-6 + 8e-6 * rng.uniform();
        refresh.trfc = 50e-9 + 300e-9 * rng.uniform();
    }
    const double bus = 2e9 + 30e9 * rng.uniform();
    SCOPED_TRACE(testing::Message()
                 << "seed " << seed << " " << cfg.scheduler << " rq "
                 << cfg.readQueueEntries << " wq " << cfg.writeQueueEntries
                 << " banks " << cfg.banks << " row " << cfg.rowBytes
                 << " wm " << cfg.drainLowWatermark << "/"
                 << cfg.drainHighWatermark << " cap " << cfg.starvationCap
                 << " refresh " << refresh.enabled());

    ref::ChannelTxQueue want(cfg, bus, refresh);
    ChannelTxQueue got(cfg, bus, refresh);
    std::vector<Completion> want_done, got_done;
    want.setCompletionHandler(
        [&](const Transaction &tx, const CompletionInfo &ci) {
            want_done.push_back({tx, ci});
        });
    got.setCompletionHandler(
        [&](const Transaction &tx, const CompletionInfo &ci) {
            got_done.push_back({tx, ci});
        });

    // A few hot rows give FR-FCFS row hits to chase (and so starvation
    // caps to hit); the rest of the stream scatters.
    const std::uint64_t row_span = cfg.rowBytes * cfg.banks;
    const unsigned hot_rows = between(rng, 1, 6);
    const double read_share = rng.uniform();
    const double mean_gap = 40e-9 * rng.uniform();
    const unsigned n = between(rng, 1, 600);
    double arrival = 0;
    for (unsigned i = 0; i < n; ++i) {
        Transaction tx;
        const std::uint64_t line =
            rng.below(row_span / kLineSize) * kLineSize;
        tx.addr = rng.below(4)
                      ? rng.below(hot_rows) * row_span + line
                      : rng.below(1u << 16) * row_span + line;
        tx.arrival = arrival;
        arrival += mean_gap * 2 * rng.uniform();
        tx.service = 20e-9 + 400e-9 * rng.uniform();
        tx.kind = rng.uniform() < read_share ? TransactionKind::Read
                                             : TransactionKind::Write;
        tx.thread = static_cast<std::uint16_t>(rng.below(8));
        tx.chargeDemand = rng.below(8) != 0;
        tx.tag = static_cast<std::int32_t>(i);

        ASSERT_EQ(want.willAccept(tx.kind), got.willAccept(tx.kind));
        want.enqueue(tx);
        got.enqueue(tx);
        ASSERT_EQ(want.readDepth(), got.readDepth()) << "after tx " << i;
        ASSERT_EQ(want.writeDepth(), got.writeDepth()) << "after tx " << i;
        ASSERT_EQ(want.draining(), got.draining()) << "after tx " << i;
        ASSERT_EQ(want.clock(), got.clock()) << "after tx " << i;

        if (rng.below(200) == 0) {
            // Epoch barrier, as MemorySystem::runQueuedDrain does it.
            want.drainAll();
            got.drainAll();
            ASSERT_TRUE(sameStats(want.takeStats(), got.takeStats()));
            want.resetEpoch();
            got.resetEpoch();
            arrival = 0;
        }
    }
    want.drainAll();
    got.drainAll();

    ASSERT_EQ(want_done.size(), n);
    ASSERT_EQ(got_done.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(sameCompletion(want_done[i], got_done[i]))
            << "completion " << i;
    ASSERT_TRUE(sameStats(want.takeStats(), got.takeStats()));
}

} // namespace

TEST(SchedulerFuzz, RingQueuesMatchTheDequeReference)
{
    for (std::uint64_t seed = 1; seed <= kCases; ++seed) {
        fuzzCase(seed);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}
