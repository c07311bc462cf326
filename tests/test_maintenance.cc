/**
 * @file
 * Directed tests for DRAM refresh accounting: the duty and demand-stall
 * math and the REF slot count carried across epochs.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "mem/maintenance/maintenance.hh"

using namespace nvsim;

TEST(MaintenanceEngine, AllOffDefaultsAreInert)
{
    MaintenanceConfig mc;
    MaintenanceEngine eng(mc);
    EXPECT_FALSE(eng.enabled());
    EXPECT_DOUBLE_EQ(eng.refreshDuty(), 0.0);
    EXPECT_DOUBLE_EQ(eng.refreshDemandStall(), 0.0);
    EXPECT_EQ(eng.closeEpoch(1.0), 0u);
}

TEST(MaintenanceEngine, RefreshDutyAndStallMath)
{
    MaintenanceConfig mc;
    mc.refresh.trefi = 7.8e-6;
    mc.refresh.trfc = 350e-9;
    MaintenanceEngine eng(mc);
    EXPECT_TRUE(eng.enabled());
    double duty = 350e-9 / 7.8e-6;
    EXPECT_DOUBLE_EQ(eng.refreshDuty(), duty);
    // Random arrival during a REF waits half the blocking time.
    EXPECT_DOUBLE_EQ(eng.refreshDemandStall(), duty * 350e-9 * 0.5);
}

TEST(MaintenanceEngine, RefreshSlotsExactOverAnyEpochPartition)
{
    MaintenanceConfig mc;
    mc.refresh.trefi = 7.8e-6;
    MaintenanceEngine whole(mc);
    MaintenanceEngine split(mc);

    std::uint64_t one = whole.closeEpoch(1e-3);
    std::uint64_t sum = 0;
    for (int i = 0; i < 10; ++i)
        sum += split.closeEpoch(1e-4);
    // Fractional REF commands carry over, so the partition can differ
    // from the whole by at most the final fractional command.
    EXPECT_EQ(one, static_cast<std::uint64_t>(1e-3 / 7.8e-6));
    EXPECT_LE(one > sum ? one - sum : sum - one, 1u);
}
