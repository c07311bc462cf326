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
