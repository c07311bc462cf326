/**
 * @file
 * SystemConfig::validate() and FaultConfig::validate() negative tests.
 *
 * validate() terminates the process through fatal() (exit code 1 with a
 * message on stderr), so every rejection is exercised as a gtest death
 * test: the assertion checks both the exit code and that the message
 * names the offending field, so a future refactor cannot silently swap
 * two checks.
 */

#include <gtest/gtest.h>

#include "sys/config.hh"

namespace
{

using namespace nvsim;

SystemConfig
okConfig()
{
    SystemConfig cfg;
    cfg.validate();  // sanity: defaults must pass
    return cfg;
}

TEST(ConfigValidate, DefaultsPass)
{
    SystemConfig cfg;
    cfg.validate();  // must not exit
    SUCCEED();
}

TEST(ConfigValidateDeathTest, RejectsZeroSockets)
{
    SystemConfig cfg = okConfig();
    cfg.sockets = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "sockets");
}

TEST(ConfigValidateDeathTest, RejectsZeroChannelsPerSocket)
{
    SystemConfig cfg = okConfig();
    cfg.channelsPerSocket = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "channelsPerSocket");
}

TEST(ConfigValidateDeathTest, RejectsZeroScale)
{
    SystemConfig cfg = okConfig();
    cfg.scale = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "scale divisor");
}

TEST(ConfigValidateDeathTest, RejectsZeroCacheWays)
{
    SystemConfig cfg = okConfig();
    cfg.cacheWays = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "cacheWays");
}

TEST(ConfigValidateDeathTest, RejectsZeroInterleaveGranularity)
{
    SystemConfig cfg = okConfig();
    cfg.interleaveGranularity = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "interleaveGranularity");
}

TEST(ConfigValidateDeathTest, RejectsDramScaledBelowMinimum)
{
    SystemConfig cfg = okConfig();
    // 32 GiB / 2^30 = 32 B per DIMM: far below 64 lines.
    cfg.scale = 1ull << 30;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "scaled DRAM DIMM too small");
}

TEST(ConfigValidateDeathTest, RejectsDramBelowInterleaveGranule)
{
    SystemConfig cfg = okConfig();
    // 64 lines of DRAM pass the floor check but sit below a huge
    // granule.
    cfg.scale = cfg.dram.capacity / (64 * kLineSize);
    cfg.interleaveGranularity = 1 * kMiB;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "interleave");
}

TEST(ConfigValidateDeathTest, RejectsNvramSmallerThanDram)
{
    SystemConfig cfg = okConfig();
    cfg.nvram.capacity = cfg.dram.capacity / 2;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "NVRAM DIMM smaller than DRAM");
}

TEST(ConfigValidateDeathTest, RejectsTagsBeyondTheTagWord)
{
    // The stock 512 GiB / 32 GiB ratio is 16: 2048 ways make the
    // largest tag 2048 x 16 - 1 = 0x7FFF, one past the 15-bit field's
    // limit; 1024 ways fit.
    SystemConfig cfg = okConfig();
    ASSERT_EQ(cfg.scaledNvramPerDimm() / cfg.scaledDramPerDimm(), 16u);
    cfg.cacheWays = 1024;
    cfg.validate();
    cfg.cacheWays = 2048;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "16-bit tag word's limit of 32766");
    // The same geometry is fine in 1LM, which has no DRAM cache.
    cfg.mode = MemoryMode::OneLm;
    cfg.validate();
}

TEST(ConfigValidateDeathTest, RejectsZeroMlp)
{
    SystemConfig cfg = okConfig();
    cfg.mlp = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "MLP");
}

TEST(ConfigValidateDeathTest, RejectsZeroEpochBytes)
{
    SystemConfig cfg = okConfig();
    cfg.epochBytes = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "epochBytes must be nonzero");
}

TEST(ConfigValidateDeathTest, RejectsSubLineEpochBytes)
{
    SystemConfig cfg = okConfig();
    cfg.epochBytes = kLineSize / 2;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "epochBytes must cover at least one line");
}

// --- FaultConfig::validate(), reached through SystemConfig ---

TEST(FaultConfigValidateDeathTest, RejectsNegativeRate)
{
    SystemConfig cfg = okConfig();
    cfg.fault.nvramReadCorrectable = -0.1;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "rate");
}

TEST(FaultConfigValidateDeathTest, RejectsRateAboveOne)
{
    SystemConfig cfg = okConfig();
    cfg.fault.tagEccUncorrectable = 1.5;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "rate");
}

TEST(FaultConfigValidateDeathTest, RejectsZeroMaxRetries)
{
    SystemConfig cfg = okConfig();
    cfg.fault.maxRetries = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "maxRetries");
}

TEST(FaultConfigValidateDeathTest, RejectsNegativeRetryLatency)
{
    SystemConfig cfg = okConfig();
    cfg.fault.retryLatency = -1e-6;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "retryLatency");
}

TEST(FaultConfigValidateDeathTest, RejectsBadThrottleFactor)
{
    SystemConfig cfg = okConfig();
    cfg.fault.throttle.engageBandwidth = 1e9;
    cfg.fault.throttle.factor = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), "factor");
}

TEST(FaultConfigValidateDeathTest, RejectsReleaseAboveEngage)
{
    SystemConfig cfg = okConfig();
    cfg.fault.throttle.engageBandwidth = 1e9;
    cfg.fault.throttle.releaseBandwidth = 2e9;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "release");
}

TEST(FaultConfigValidateDeathTest, RejectsZeroThrottleEpochs)
{
    SystemConfig cfg = okConfig();
    cfg.fault.throttle.engageBandwidth = 1e9;
    cfg.fault.throttle.engageEpochs = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "[Ee]poch");
}

// --- MaintenanceConfig::validate(), reached through SystemConfig ---

TEST(MaintenanceConfigValidateDeathTest, RejectsNegativeRefreshCadence)
{
    SystemConfig cfg = okConfig();
    cfg.maintenance.refresh.trefi = -7.8e-6;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "negative cadence");
}

TEST(MaintenanceConfigValidateDeathTest, RejectsRefreshEatingAllBankTime)
{
    SystemConfig cfg = okConfig();
    cfg.maintenance.refresh.trefi = 100e-9;
    cfg.maintenance.refresh.trfc = 350e-9;  // tRFC >= tREFI
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "all bank time refreshing");
}

TEST(MaintenanceConfigValidateDeathTest, RejectsNegativeScrubInterval)
{
    SystemConfig cfg = okConfig();
    cfg.maintenance.scrub.interval = -100;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "negative cadence");
}

TEST(MaintenanceConfigValidateDeathTest, RejectsZeroRetireThreshold)
{
    SystemConfig cfg = okConfig();
    cfg.maintenance.scrub.interval = 100;
    cfg.maintenance.scrub.retireThreshold = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "retire threshold");
}

TEST(MaintenanceConfigValidateDeathTest, RejectsScrubRateAboveOne)
{
    SystemConfig cfg = okConfig();
    cfg.maintenance.scrub.interval = 100;
    cfg.maintenance.scrub.correctable = 1.5;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "\\[0, 1\\]");
}

TEST(MaintenanceConfigValidateDeathTest,
     RejectsRetireCapacityAboveCacheSize)
{
    SystemConfig cfg = okConfig();
    cfg.maintenance.scrub.interval = 100;
    // More spare rows than the scaled DIMM has cache lines.
    cfg.maintenance.scrub.retireCapacity =
        cfg.scaledDramPerDimm() / kLineSize + 1;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "retirement capacity");
}

TEST(MaintenanceConfigValidateDeathTest, RejectsZeroRowHammerTracker)
{
    SystemConfig cfg = okConfig();
    cfg.maintenance.rowhammer.threshold = 1000;
    cfg.maintenance.rowhammer.trackerEntries = 0;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "tracker");
}

TEST(MaintenanceConfigValidate, AllOffDefaultsPassAndStayDisabled)
{
    SystemConfig cfg = okConfig();
    EXPECT_FALSE(cfg.maintenance.enabled());
    cfg.validate();
    SUCCEED();
}

} // namespace
