/**
 * @file
 * SystemConfig::validate() negative tests, plus the config-file keys
 * of deleted models that SystemConfig::fromJson() must refuse.
 *
 * validate() terminates the process through fatal() (exit code 1 with a
 * message on stderr), so every rejection is exercised as a gtest death
 * test: the assertion checks both the exit code and that the message
 * names the offending field, so a future refactor cannot silently swap
 * two checks.
 */

#include <gtest/gtest.h>

#include "sys/config.hh"
#include "sys/llc.hh"

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

TEST(ConfigValidateDeathTest, RejectsLlcWiderThanTheRecencyWord)
{
    // The LLC orders each set's ways in one 64-bit word, a nibble each.
    SystemConfig cfg = okConfig();
    cfg.llcWays = 16;
    cfg.validate();
    cfg.llcWays = 17;
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "llcWays \\(17\\) exceeds the LLC recency word's limit of "
                "16 ways");
    // A directly built Llc refuses the same geometry.
    EXPECT_EXIT({ Llc llc(LlcParams{kMiB, 17}); },
                ::testing::ExitedWithCode(1), "16-way limit");
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

// --- Fault-injection settings, reached through SystemConfig::fromJson ---
//
// There is no fault-injection model: a config file that asks for one,
// with a sane or an insane value, must be refused at load time rather
// than run fault-free. Each case below is a setting that validate()
// used to reject; it is still rejected, now by the key check.

void
expectFaultBlockRejected(const char *json)
{
    EXPECT_EXIT(SystemConfig::fromJson(json), ::testing::ExitedWithCode(1),
                "unknown key 'fault' in the top-level object");
}

TEST(FaultConfigValidateDeathTest, RejectsNegativeRate)
{
    expectFaultBlockRejected(
        "{\"fault\": {\"nvram_read_correctable\": -0.1}}");
}

TEST(FaultConfigValidateDeathTest, RejectsRateAboveOne)
{
    expectFaultBlockRejected("{\"fault\": {\"tag_ecc_uncorrectable\": 1.5}}");
}

TEST(FaultConfigValidateDeathTest, RejectsZeroMaxRetries)
{
    expectFaultBlockRejected("{\"fault\": {\"max_retries\": 0}}");
}

TEST(FaultConfigValidateDeathTest, RejectsNegativeRetryLatency)
{
    expectFaultBlockRejected("{\"fault\": {\"retry_latency\": -1e-6}}");
}

TEST(FaultConfigValidateDeathTest, RejectsBadThrottleFactor)
{
    expectFaultBlockRejected(
        "{\"fault\": {\"throttle\": "
        "{\"engage_bandwidth\": 1e9, \"factor\": 0}}}");
}

TEST(FaultConfigValidateDeathTest, RejectsReleaseAboveEngage)
{
    expectFaultBlockRejected(
        "{\"fault\": {\"throttle\": "
        "{\"engage_bandwidth\": 1e9, \"release_bandwidth\": 2e9}}}");
}

TEST(FaultConfigValidateDeathTest, RejectsZeroThrottleEpochs)
{
    expectFaultBlockRejected(
        "{\"fault\": {\"throttle\": "
        "{\"engage_bandwidth\": 1e9, \"engage_epochs\": 0}}}");
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

// The maintenance block models refresh only. A patrol-scrub or
// RowHammer setting that validate() used to reject is still rejected,
// now by the key check, so an old config cannot run without them.

TEST(MaintenanceConfigValidateDeathTest, RejectsNegativeScrubInterval)
{
    EXPECT_EXIT(SystemConfig::fromJson(
                    "{\"maintenance\": {\"scrub\": {\"interval\": -100}}}"),
                ::testing::ExitedWithCode(1),
                "unknown key 'scrub' in maintenance");
}

TEST(MaintenanceConfigValidateDeathTest, RejectsZeroRetireThreshold)
{
    EXPECT_EXIT(SystemConfig::fromJson(
                    "{\"maintenance\": {\"scrub\": "
                    "{\"interval\": 100, \"retire_threshold\": 0}}}"),
                ::testing::ExitedWithCode(1),
                "unknown key 'scrub' in maintenance");
}

TEST(MaintenanceConfigValidateDeathTest, RejectsScrubRateAboveOne)
{
    EXPECT_EXIT(SystemConfig::fromJson(
                    "{\"maintenance\": {\"scrub\": "
                    "{\"interval\": 100, \"correctable\": 1.5}}}"),
                ::testing::ExitedWithCode(1),
                "unknown key 'scrub' in maintenance");
}

TEST(MaintenanceConfigValidateDeathTest,
     RejectsRetireCapacityAboveCacheSize)
{
    EXPECT_EXIT(SystemConfig::fromJson(
                    "{\"maintenance\": {\"scrub\": {\"interval\": 100, "
                    "\"retire_capacity\": 1099511627776}}}"),
                ::testing::ExitedWithCode(1),
                "unknown key 'scrub' in maintenance");
}

TEST(MaintenanceConfigValidateDeathTest, RejectsZeroRowHammerTracker)
{
    EXPECT_EXIT(SystemConfig::fromJson(
                    "{\"maintenance\": {\"rowhammer\": "
                    "{\"threshold\": 1000, \"tracker_entries\": 0}}}"),
                ::testing::ExitedWithCode(1),
                "unknown key 'rowhammer' in maintenance");
}

TEST(MaintenanceConfigValidate, AllOffDefaultsPassAndStayDisabled)
{
    SystemConfig cfg = okConfig();
    EXPECT_FALSE(cfg.maintenance.enabled());
    cfg.validate();
    SUCCEED();
}

} // namespace
