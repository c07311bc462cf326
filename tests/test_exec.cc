/**
 * @file
 * Tests for the parallel sweep runner: work actually spreads across the
 * pool, results come back in task-index order regardless of completion
 * order, exceptions propagate, and jobs=1 degenerates to an inline
 * serial loop.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/sweep.hh"

using nvsim::exec::hardwareJobs;
using nvsim::exec::SweepRunner;

TEST(SweepRunner, HardwareJobsIsPositive)
{
    EXPECT_GE(hardwareJobs(), 1u);
}

TEST(SweepRunner, MapCollectsResultsInIndexOrder)
{
    SweepRunner pool(4);
    std::vector<int> out = pool.map<int>(
        37, [](std::size_t i) { return static_cast<int>(i * i); });
    ASSERT_EQ(out.size(), 37u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], static_cast<int>(i * i));
}

TEST(SweepRunner, AdversarialDurationsStillCollectInOrder)
{
    // Early tasks sleep longest, so completion order is roughly the
    // reverse of the task order; collection must still be by index.
    SweepRunner pool(4);
    std::vector<std::size_t> completion;
    std::mutex m;
    const std::size_t n = 12;
    std::vector<int> out = pool.map<int>(n, [&](std::size_t i) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(2 * (n - i)));
        {
            std::lock_guard<std::mutex> lock(m);
            completion.push_back(i);
        }
        return static_cast<int>(i) + 100;
    });
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], static_cast<int>(i) + 100);
    // Sanity: completion order was in fact scrambled (some later task
    // finished before some earlier one).
    ASSERT_EQ(completion.size(), n);
    bool scrambled = false;
    for (std::size_t i = 1; i < completion.size(); ++i)
        scrambled = scrambled || completion[i] < completion[i - 1];
    EXPECT_TRUE(scrambled);
}

TEST(SweepRunner, WorkSpreadsAcrossThreads)
{
    SweepRunner pool(4);
    std::mutex m;
    std::set<std::thread::id> ids;
    std::atomic<int> barrier{0};
    pool.forEach(4, [&](std::size_t) {
        // Hold every task open until all four have started, forcing
        // them onto distinct workers.
        ++barrier;
        while (barrier.load() < 4)
            std::this_thread::yield();
        std::lock_guard<std::mutex> lock(m);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(ids.size(), 4u);
    // The submitting thread stays out of the task loop when a pool is
    // active.
    EXPECT_EQ(ids.count(std::this_thread::get_id()), 0u);
}

TEST(SweepRunner, JobsOneRunsInlineInOrder)
{
    SweepRunner pool(1);
    std::vector<std::size_t> order;
    std::thread::id self = std::this_thread::get_id();
    pool.forEach(8, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 8u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(SweepRunner, ExceptionPropagatesLowestIndexFirst)
{
    SweepRunner pool(4);
    std::atomic<int> ran{0};
    try {
        pool.forEach(10, [&](std::size_t i) {
            ++ran;
            if (i == 7)
                throw std::runtime_error("task 7");
            if (i == 3)
                throw std::runtime_error("task 3");
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 3");
    }
    // A failing task does not cancel the rest of the batch.
    EXPECT_EQ(ran.load(), 10);
}

TEST(SweepRunner, ReusableAcrossBatches)
{
    SweepRunner pool(3);
    for (int round = 0; round < 5; ++round) {
        std::vector<int> out = pool.map<int>(
            7, [&](std::size_t i) { return round * 10 + static_cast<int>(i); });
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], round * 10 + static_cast<int>(i));
    }
}

TEST(SweepRunner, ReuseStressEveryIndexRunsOncePerBatch)
{
    // Back-to-back batches of changing size: a worker that wakes late
    // for a finished batch must never claim an index of the next one
    // under the old size or run the old task.
    for (unsigned jobs : {3u, 4u}) {
        SweepRunner pool(jobs);
        for (int round = 0; round < 2500; ++round) {
            std::size_t n = 2 + static_cast<std::size_t>(round % 8);
            std::vector<std::atomic<int>> runs(n);
            std::vector<int> out = pool.map<int>(n, [&](std::size_t i) {
                runs[i].fetch_add(1, std::memory_order_relaxed);
                return round * 16 + static_cast<int>(i);
            });
            ASSERT_EQ(out.size(), n);
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(runs[i].load(), 1)
                    << "jobs " << jobs << " round " << round;
                ASSERT_EQ(out[i], round * 16 + static_cast<int>(i));
            }
        }
    }
}

TEST(SweepRunner, ZeroTasksIsANoOp)
{
    SweepRunner pool(4);
    std::vector<int> out = pool.map<int>(0, [](std::size_t) { return 1; });
    EXPECT_TRUE(out.empty());
}

TEST(SweepRunner, DefaultJobsUsesHardwareConcurrency)
{
    SweepRunner pool(0);
    EXPECT_EQ(pool.jobs(), hardwareJobs());
}

// --- Intra-run channel sharding (exec/shard.hh) ---------------------------
//
// The contract under test: a MemorySystem run produces byte-identical
// results at any --shard-threads=N — counters, simulated clock (exact
// floating point, not approximate), fault-event log, poison state,
// write amplification and the per-epoch trace.

#include "core/rng.hh"
#include "exec/shard.hh"
#include "sys/memsys.hh"

using namespace nvsim;
using nvsim::exec::ShardPool;

TEST(ShardPool, RunsEveryIndexExactlyOnce)
{
    ShardPool pool(4);
    std::vector<std::atomic<int>> hits(53);
    for (auto &h : hits)
        h = 0;
    pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ShardPool, SingleThreadRunsInlineInOrder)
{
    ShardPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    std::vector<std::size_t> order;
    std::thread::id self = std::this_thread::get_id();
    pool.run(9, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 9u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ShardPool, ReusableAcrossEpochBatches)
{
    ShardPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<int> sum{0};
        pool.run(7, [&](std::size_t i) { sum += static_cast<int>(i); });
        EXPECT_EQ(sum.load(), 21);
    }
}

namespace
{

/** Everything a run can output, for exact comparison. */
struct RunDigest
{
    std::array<std::uint64_t, PerfCounters::numFields()> counters{};
    double now = 0;
    double amplification = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::size_t poisoned = 0;
    std::uint64_t poisonCreated = 0;
    std::uint64_t poisonPropagated = 0;
    std::uint64_t poisonCleared = 0;
    std::vector<FaultLog::Event> events;
    std::vector<std::string> traceNames;
    std::vector<Sample> traceSamples;
};

RunDigest
digest(MemorySystem &sys)
{
    RunDigest d;
    d.counters = sys.counters().asArray();
    d.now = sys.now();
    d.amplification = sys.nvramWriteAmplification();
    d.llcHits = sys.llc().hitCount();
    d.llcMisses = sys.llc().missCount();
    d.poisoned = sys.poisonedLines();
    d.poisonCreated = sys.faultLog().poisonCreated();
    d.poisonPropagated = sys.faultLog().poisonPropagated();
    d.poisonCleared = sys.faultLog().poisonCleared();
    d.events = sys.faultLog().events();
    for (const std::string &name : sys.trace().names()) {
        d.traceNames.push_back(name);
        const auto &ring = sys.trace().channel(name);
        for (std::size_t i = 0; i < ring.size(); ++i)
            d.traceSamples.push_back(ring[i]);
    }
    return d;
}

void
expectIdentical(const RunDigest &a, const RunDigest &b)
{
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.now, b.now);  // exact: bitwise-equal FP accumulation
    EXPECT_EQ(a.amplification, b.amplification);
    EXPECT_EQ(a.llcHits, b.llcHits);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.poisoned, b.poisoned);
    EXPECT_EQ(a.poisonCreated, b.poisonCreated);
    EXPECT_EQ(a.poisonPropagated, b.poisonPropagated);
    EXPECT_EQ(a.poisonCleared, b.poisonCleared);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
        EXPECT_EQ(a.events[i].time, b.events[i].time);
        EXPECT_EQ(a.events[i].channel, b.events[i].channel);
        EXPECT_EQ(a.events[i].kind, b.events[i].kind);
        EXPECT_EQ(a.events[i].addr, b.events[i].addr);
    }
    EXPECT_EQ(a.traceNames, b.traceNames);
    ASSERT_EQ(a.traceSamples.size(), b.traceSamples.size());
    for (std::size_t i = 0; i < a.traceSamples.size(); ++i) {
        EXPECT_EQ(a.traceSamples[i].time, b.traceSamples[i].time);
        EXPECT_EQ(a.traceSamples[i].value, b.traceSamples[i].value);
    }
}

SystemConfig
shardConfig(MemoryMode mode)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.scale = 4096;  // 32 GiB DRAM DIMM -> 8 MiB, NVRAM -> 128 MiB
    cfg.epochBytes = 64 * kKiB;
    return cfg;
}

/** Mixed demand kinds, LLC hits among misses, and a DMA copy. */
void
driveMixed(MemorySystem &sys)
{
    Region a = sys.allocate(768 * kKiB, "a");
    Region b = sys.allocate(256 * kKiB, "b");
    sys.setActiveThreads(4);
    sys.submit({0, CpuOp::Load, a.base, a.size});
    sys.submit({1, CpuOp::Store, b.base, b.size});
    // Re-touch a prefix: LLC hits interleave with misses, so the
    // hit-latency markers must replay in order.
    sys.submit({0, CpuOp::Load, a.base, 96 * kKiB});
    sys.submit({2, CpuOp::NtStore, a.base + 128 * kKiB, 128 * kKiB});
    sys.dmaCopy(b.base, a.base, 32 * kKiB);
    sys.submit({3, CpuOp::Load, b.base, b.size});
    sys.quiesce();
}

template <typename Drive>
RunDigest
runAt(const SystemConfig &cfg, unsigned shard_threads, Drive &&drive,
      bool per_line = false)
{
    MemorySystem sys(cfg);
    if (per_line)
        sys.setBatchedAccess(false);
    sys.setShardThreads(shard_threads);
    drive(sys);
    return digest(sys);
}

} // namespace

TEST(ShardDeterminism, TwoLmBatchedByteIdenticalAcrossThreadCounts)
{
    SystemConfig cfg = shardConfig(MemoryMode::TwoLm);
    RunDigest base = runAt(cfg, 1, driveMixed);
    for (unsigned t : {2u, 4u, 7u})
        expectIdentical(base, runAt(cfg, t, driveMixed));
}

TEST(ShardDeterminism, OneLmBatchedByteIdenticalAcrossThreadCounts)
{
    SystemConfig cfg = shardConfig(MemoryMode::OneLm);
    RunDigest base = runAt(cfg, 1, driveMixed);
    for (unsigned t : {2u, 4u, 7u})
        expectIdentical(base, runAt(cfg, t, driveMixed));
}

TEST(ShardDeterminism, PerLineEngineShardsIdentically)
{
    SystemConfig cfg = shardConfig(MemoryMode::TwoLm);
    RunDigest base = runAt(cfg, 1, driveMixed, /*per_line=*/true);
    expectIdentical(base, runAt(cfg, 4, driveMixed, /*per_line=*/true));
    // And the engines agree with each other under sharding.
    expectIdentical(base, runAt(cfg, 4, driveMixed, /*per_line=*/false));
}

TEST(ShardDeterminism, FaultAndMaintenanceReplayIsExact)
{
    for (MemoryMode mode : {MemoryMode::TwoLm, MemoryMode::OneLm}) {
        SystemConfig cfg = shardConfig(mode);
        cfg.fault.seed = 99;
        cfg.fault.nvramReadCorrectable = 0.02;
        cfg.fault.nvramReadUncorrectable = 0.002;
        cfg.fault.tagEccUncorrectable = 0.001;
        cfg.fault.dramCorrectable = 0.005;
        cfg.maintenance.refresh.trefi = 7.8e-6;
        cfg.maintenance.scrub.interval = 1e-4;
        cfg.maintenance.scrub.correctable = 0.01;
        cfg.maintenance.scrub.uncorrectable = 0.001;
        RunDigest base = runAt(cfg, 1, driveMixed);
        for (unsigned t : {4u, 7u})
            expectIdentical(base, runAt(cfg, t, driveMixed));
        // The fault paths must actually have fired for this to mean
        // anything.
        EXPECT_FALSE(base.events.empty());
    }
}

TEST(ShardDeterminism, FuzzReplayAtRandomThreadCounts)
{
    SystemConfig cfg = shardConfig(MemoryMode::TwoLm);
    cfg.fault.seed = 7;
    cfg.fault.nvramReadCorrectable = 0.01;
    cfg.fault.nvramReadUncorrectable = 0.001;

    auto drive = [](MemorySystem &sys) {
        Region a = sys.allocate(512 * kKiB, "a");
        Region b = sys.allocate(512 * kKiB, "b");
        std::uint64_t s = 0x5eed;
        for (int round = 0; round < 120; ++round) {
            std::uint64_t r = splitmix64(s);
            const Region &reg = (r & 1) ? a : b;
            Addr off = (r >> 1) % reg.size;
            Bytes len = 64 + (r >> 24) % (16 * kKiB);
            if (off + len > reg.size)
                len = reg.size - off;
            unsigned tid = (r >> 8) % 4;
            switch ((r >> 4) % 8) {
              case 0:
              case 1:
              case 2:
                sys.submit({tid, CpuOp::Load, reg.base + off, len});
                break;
              case 3:
              case 4:
                sys.submit({tid, CpuOp::Store, reg.base + off, len});
                break;
              case 5:
                sys.submit({tid, CpuOp::NtStore, reg.base + off,
                                len});
                break;
              case 6:
                sys.dmaCopy(b.base + off % (reg.size / 2),
                            a.base + off % (reg.size / 2), len);
                break;
              case 7:
                sys.advanceEpoch();
                break;
            }
            if (round == 60)
                sys.offlineChannel(2);
        }
        sys.quiesce();
    };

    RunDigest base = runAt(cfg, 1, drive);
    std::uint64_t s = 0xf00d;
    for (int i = 0; i < 4; ++i) {
        unsigned t = 2 + splitmix64(s) % 7;
        expectIdentical(base, runAt(cfg, t, drive));
    }
}

TEST(ShardDeterminism, ThreadCountCanChangeMidRun)
{
    SystemConfig cfg = shardConfig(MemoryMode::TwoLm);
    RunDigest base = runAt(cfg, 1, driveMixed);

    MemorySystem sys(cfg);
    Region a = sys.allocate(768 * kKiB, "a");
    Region b = sys.allocate(256 * kKiB, "b");
    sys.setActiveThreads(4);
    sys.setShardThreads(4);
    sys.submit({0, CpuOp::Load, a.base, a.size});
    sys.setShardThreads(2);  // joins the open batch, then re-pools
    sys.submit({1, CpuOp::Store, b.base, b.size});
    sys.submit({0, CpuOp::Load, a.base, 96 * kKiB});
    sys.setShardThreads(1);  // back to the immediate engine
    sys.submit({2, CpuOp::NtStore, a.base + 128 * kKiB, 128 * kKiB});
    sys.setShardThreads(5);
    sys.dmaCopy(b.base, a.base, 32 * kKiB);
    sys.submit({3, CpuOp::Load, b.base, b.size});
    sys.quiesce();
    expectIdentical(base, digest(sys));
}

TEST(ShardDeterminism, MidEpochReadsJoinTheBarrier)
{
    SystemConfig cfg = shardConfig(MemoryMode::TwoLm);

    MemorySystem serial(cfg);
    MemorySystem sharded(cfg);
    sharded.setShardThreads(4);
    for (MemorySystem *sys : {&serial, &sharded}) {
        Region a = sys->allocate(256 * kKiB, "a");
        sys->submit({0, CpuOp::Load, a.base, a.size});
    }
    // No quiesce: both systems sit mid-epoch with work in flight. The
    // accessors must join the shard barrier and agree exactly.
    EXPECT_EQ(serial.counters().asArray(),
              sharded.counters().asArray());
    EXPECT_EQ(serial.nvramWriteAmplification(),
              sharded.nvramWriteAmplification());
    EXPECT_EQ(serial.channel(0).counters().asArray(),
              sharded.channel(0).counters().asArray());
    serial.quiesce();
    sharded.quiesce();
    expectIdentical(digest(serial), digest(sharded));
}
