/**
 * @file
 * Tests for the pluggable cache-policy framework: the registry
 * resolves names (and refuses typos loudly), the stock controller
 * behaves identically when driven through the CachePolicy interface,
 * the SRAM-tag policy really does eliminate tag-check device reads,
 * the bypass policy honors its insertion threshold, and SystemConfig
 * survives a JSON round trip.
 */

#include <gtest/gtest.h>

#include "imc/bypass_policy.hh"
#include "imc/cache_policy.hh"
#include "imc/dram_cache.hh"
#include "imc/sram_tag_policy.hh"
#include "sys/config.hh"

using namespace nvsim;

namespace
{

/** A tiny cache: 64 sets x 1 way, DDO disabled unless stated. */
DramCacheParams
tinyParams(DdoMode mode = DdoMode::None)
{
    DramCacheParams p;
    p.capacity = 64 * kLineSize;
    p.ddo.mode = mode;
    p.ddo.trackerEntries = 64;
    p.ways = 1;
    return p;
}

CachePolicyConfig
configFor(const std::string &kind)
{
    CachePolicyConfig c;
    c.kind = kind;
    return c;
}

/** Address that maps to the same set as @p addr but a different tag. */
Addr
aliasOf(const CachePolicy &cache, Addr addr)
{
    return addr + cache.numSets() * kLineSize;
}

} // namespace

// --- Registry ------------------------------------------------------------

TEST(PolicyRegistry, KnowsTheBuiltIns)
{
    const CachePolicyRegistry &reg = CachePolicyRegistry::instance();
    EXPECT_TRUE(reg.known("direct_mapped_tag_ecc"));
    EXPECT_TRUE(reg.known("sram_tag_set_assoc"));
    EXPECT_TRUE(reg.known("bypass_selective_insert"));
    EXPECT_FALSE(reg.known("no_such_policy"));

    std::vector<std::string> names = reg.names();
    ASSERT_GE(names.size(), 3u);
    // The stock policy registers first so it is the natural default.
    EXPECT_EQ(names[0], "direct_mapped_tag_ecc");
    for (const std::string &n : names)
        EXPECT_FALSE(reg.description(n).empty()) << n;
}

TEST(PolicyRegistry, CreateResolvesKindName)
{
    for (const std::string &name :
         CachePolicyRegistry::instance().names()) {
        auto policy = makeCachePolicy(tinyParams(), configFor(name));
        ASSERT_NE(policy, nullptr) << name;
        EXPECT_EQ(policy->kindName(), name);
    }
}

TEST(PolicyRegistryDeath, UnknownKindIsFatal)
{
    EXPECT_EXIT(makeCachePolicy(tinyParams(), configFor("bansheee")),
                ::testing::ExitedWithCode(1), "bansheee");
}

TEST(PolicyRegistryDeath, ValidateRejectsUnknownKind)
{
    CachePolicyConfig c = configFor("typo_policy");
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1),
                "typo_policy");
}

TEST(PolicyRegistryDeath, ValidateRejectsUnknownReplacement)
{
    CachePolicyConfig c = configFor("sram_tag_set_assoc");
    c.replacement = "plru";
    EXPECT_EXIT(c.validate(), ::testing::ExitedWithCode(1), "plru");
}

// --- Stock policy through the interface ----------------------------------

/**
 * The refactor's core guarantee: a registry-created
 * "direct_mapped_tag_ecc" policy is the DramCache. Drive both with the
 * same mixed access sequence and demand identical results per access.
 */
TEST(PolicyEquivalence, DirectMappedMatchesDramCache)
{
    DramCacheParams params = tinyParams(DdoMode::RecentTracker);
    DramCache direct(params);
    auto viaRegistry =
        makeCachePolicy(params, configFor("direct_mapped_tag_ecc"));

    // Reads/writes over aliasing lines: hits, clean misses, dirty
    // misses, DDO writes.
    for (int pass = 0; pass < 3; ++pass) {
        for (Addr line = 0; line < 96; ++line) {
            Addr addr = line * kLineSize;
            CacheResult a = (line % 3 == 0) ? direct.write(addr)
                                            : direct.read(addr);
            CacheResult b = (line % 3 == 0) ? viaRegistry->write(addr)
                                            : viaRegistry->read(addr);
            EXPECT_EQ(a.outcome, b.outcome) << "line " << line;
            EXPECT_EQ(a.actions.dramReads, b.actions.dramReads);
            EXPECT_EQ(a.actions.dramWrites, b.actions.dramWrites);
            EXPECT_EQ(a.actions.nvramReads, b.actions.nvramReads);
            EXPECT_EQ(a.actions.nvramWrites, b.actions.nvramWrites);
            EXPECT_EQ(a.wroteBack, b.wroteBack);
            EXPECT_EQ(a.victim, b.victim);
            EXPECT_EQ(a.filled, b.filled);
            EXPECT_EQ(a.fill, b.fill);
            EXPECT_EQ(a.bypassed, b.bypassed);
        }
    }
    for (Addr line = 0; line < 96; ++line) {
        Addr addr = line * kLineSize;
        EXPECT_EQ(direct.resident(addr), viaRegistry->resident(addr));
        EXPECT_EQ(direct.residentDirty(addr),
                  viaRegistry->residentDirty(addr));
    }
}

// --- SRAM-tag set-associative policy -------------------------------------

TEST(SramTagPolicy, HitCostsOneDeviceAccess)
{
    auto policy =
        makeCachePolicy(tinyParams(), configFor("sram_tag_set_assoc"));
    policy->read(0);  // fill
    CacheResult r = policy->read(0);
    EXPECT_EQ(r.outcome, CacheOutcome::Hit);
    EXPECT_TRUE(r.tagsInSram);
    EXPECT_EQ(r.actions.dramReads, 1u);  // the data itself
    EXPECT_EQ(r.actions.total(), 1u);

    CacheResult w = policy->write(0);
    EXPECT_EQ(w.outcome, CacheOutcome::Hit);
    EXPECT_TRUE(w.tagsInSram);
    EXPECT_EQ(w.actions.dramWrites, 1u);  // no tag-check read first
    EXPECT_EQ(w.actions.total(), 1u);
}

TEST(SramTagPolicy, MissSpendsNoTagProbeRead)
{
    DramCacheParams params = tinyParams();
    auto policy = makeCachePolicy(params, configFor("sram_tag_set_assoc"));
    DramCache stock(params);

    // Clean read miss: stock pays DRAM tag probe + NVRAM fetch + DRAM
    // insert (amplification 3); SRAM tags shed the probe (2).
    CacheResult s = stock.read(0);
    CacheResult r = policy->read(0);
    EXPECT_EQ(s.actions.total(), 3u);
    EXPECT_EQ(r.actions.total(), 2u);
    EXPECT_EQ(r.actions.dramReads, 0u);
    EXPECT_EQ(r.actions.nvramReads, 1u);
    EXPECT_EQ(r.actions.dramWrites, 1u);
    EXPECT_TRUE(r.filled);
}

TEST(SramTagPolicy, AssociativityAbsorbsAliases)
{
    DramCacheParams params = tinyParams();
    params.ways = 2;
    params.capacity = 128 * kLineSize;  // 64 sets x 2 ways
    auto policy = makeCachePolicy(params, configFor("sram_tag_set_assoc"));
    Addr a = 0;
    Addr b = aliasOf(*policy, a);
    policy->read(a);
    policy->read(b);
    // Both aliases coexist; the direct-mapped cache would have evicted.
    EXPECT_TRUE(policy->resident(a));
    EXPECT_TRUE(policy->resident(b));
    EXPECT_EQ(policy->read(a).outcome, CacheOutcome::Hit);
    EXPECT_EQ(policy->read(b).outcome, CacheOutcome::Hit);
}

TEST(SramTagPolicy, FifoSkipsLruTouch)
{
    DramCacheParams params = tinyParams();
    params.ways = 2;
    params.capacity = 128 * kLineSize;
    CachePolicyConfig lru = configFor("sram_tag_set_assoc");
    CachePolicyConfig fifo = lru;
    fifo.replacement = "fifo";

    // Fill both ways, re-touch the oldest, then force an eviction. LRU
    // keeps the re-touched line; FIFO evicts it anyway.
    for (const auto &[cfg, survives] :
         {std::pair<const CachePolicyConfig &, bool>{lru, true},
          {fifo, false}}) {
        auto policy = makeCachePolicy(params, cfg);
        Addr a = 0;
        Addr b = aliasOf(*policy, a);
        Addr c = b + policy->numSets() * kLineSize;
        policy->read(a);
        policy->read(b);
        policy->read(a);  // touch: protects a under LRU only
        policy->read(c);  // evicts
        EXPECT_EQ(policy->resident(a), survives)
            << cfg.replacement;
    }
}

// --- Bypass / selective-insert policy ------------------------------------

TEST(BypassPolicy, InsertsOnlyAtThreshold)
{
    CachePolicyConfig cfg = configFor("bypass_selective_insert");
    cfg.insertThreshold = 3;
    auto base = makeCachePolicy(tinyParams(), cfg);
    auto *policy = static_cast<BypassSelectiveInsertPolicy *>(base.get());
    ASSERT_EQ(policy->insertThreshold(), 3u);

    // Misses 1 and 2 bypass: tag probe + NVRAM demand read, no insert.
    for (int i = 0; i < 2; ++i) {
        CacheResult r = policy->read(0);
        EXPECT_EQ(r.outcome, CacheOutcome::MissClean) << i;
        EXPECT_TRUE(r.bypassed) << i;
        EXPECT_EQ(r.actions.dramWrites, 0u) << i;
        EXPECT_EQ(r.actions.nvramReads, 1u) << i;
        EXPECT_FALSE(policy->resident(0)) << i;
    }
    EXPECT_EQ(policy->missCount(0), 2u);

    // Miss 3 earns the insert; the line is resident afterwards.
    CacheResult r = policy->read(0);
    EXPECT_FALSE(r.bypassed);
    EXPECT_EQ(r.actions.dramWrites, 1u);
    EXPECT_TRUE(policy->resident(0));
    EXPECT_EQ(policy->read(0).outcome, CacheOutcome::Hit);
}

TEST(BypassPolicy, BypassedWriteGoesStraightToNvram)
{
    CachePolicyConfig cfg = configFor("bypass_selective_insert");
    cfg.insertThreshold = 2;
    auto policy = makeCachePolicy(tinyParams(), cfg);
    CacheResult r = policy->write(0);
    EXPECT_TRUE(r.bypassed);
    EXPECT_TRUE(r.wroteBack);  // demand store landed in NVRAM
    EXPECT_EQ(r.actions.nvramWrites, 1u);
    EXPECT_EQ(r.actions.dramReads, 1u);  // tags-in-ECC probe remains
    EXPECT_EQ(r.actions.total(), 2u);
    EXPECT_FALSE(policy->resident(0));
}

/** threshold 1 = insert on every miss = the stock policy, exactly. */
TEST(BypassPolicy, ThresholdOneMatchesStock)
{
    DramCacheParams params = tinyParams();
    CachePolicyConfig cfg = configFor("bypass_selective_insert");
    cfg.insertThreshold = 1;
    auto policy = makeCachePolicy(params, cfg);
    DramCache stock(params);
    for (Addr line = 0; line < 96; ++line) {
        Addr addr = line * kLineSize;
        CacheResult a = (line % 3 == 0) ? stock.write(addr)
                                        : stock.read(addr);
        CacheResult b = (line % 3 == 0) ? policy->write(addr)
                                        : policy->read(addr);
        EXPECT_EQ(a.outcome, b.outcome) << "line " << line;
        EXPECT_EQ(a.actions.total(), b.actions.total());
        EXPECT_EQ(a.filled, b.filled);
        EXPECT_FALSE(b.bypassed);
    }
}

// --- SystemConfig JSON round trip ----------------------------------------

TEST(ConfigJson, RoundTripPreservesEveryField)
{
    SystemConfig cfg;
    cfg.mode = MemoryMode::TwoLm;
    cfg.sockets = 2;
    cfg.scale = 4096;
    cfg.cacheWays = 2;
    cfg.insertOnWriteMiss = false;
    cfg.policy.kind = "bypass_selective_insert";
    cfg.policy.insertThreshold = 5;
    cfg.policy.replacement = "fifo";
    cfg.ddo.mode = DdoMode::Oracle;

    SystemConfig back = SystemConfig::fromJson(cfg.toJson());
    EXPECT_EQ(back.mode, cfg.mode);
    EXPECT_EQ(back.sockets, cfg.sockets);
    EXPECT_EQ(back.scale, cfg.scale);
    EXPECT_EQ(back.cacheWays, cfg.cacheWays);
    EXPECT_EQ(back.insertOnWriteMiss, cfg.insertOnWriteMiss);
    EXPECT_EQ(back.policy.kind, cfg.policy.kind);
    EXPECT_EQ(back.policy.insertThreshold, cfg.policy.insertThreshold);
    EXPECT_EQ(back.policy.replacement, cfg.policy.replacement);
    EXPECT_EQ(back.policy.counterEntries, cfg.policy.counterEntries);
    EXPECT_EQ(back.ddo.mode, cfg.ddo.mode);
    EXPECT_EQ(back.dram.capacity, cfg.dram.capacity);
    EXPECT_EQ(back.nvram.readBandwidth, cfg.nvram.readBandwidth);
    EXPECT_EQ(back.llcCapacity, cfg.llcCapacity);
    EXPECT_EQ(back.mlp, cfg.mlp);

    // The round trip is a fixed point: serializing again is identical.
    EXPECT_EQ(back.toJson(), cfg.toJson());
}

TEST(ConfigJson, DefaultsSurviveRoundTrip)
{
    SystemConfig def;
    SystemConfig back = SystemConfig::fromJson(def.toJson());
    EXPECT_EQ(back.toJson(), def.toJson());
    EXPECT_EQ(back.policy.kind, "direct_mapped_tag_ecc");
}

TEST(ConfigJsonDeath, UnknownTopLevelKeyIsFatal)
{
    EXPECT_EXIT(SystemConfig::fromJson("{\"sokets\": 2}"),
                ::testing::ExitedWithCode(1), "sokets");
    // There is no fault-injection block: a config that sets one must
    // fail loudly, not run fault-free.
    EXPECT_EXIT(SystemConfig::fromJson("{\"fault\": {\"seed\": 7}}"),
                ::testing::ExitedWithCode(1),
                "unknown key 'fault' in the top-level object");
}

TEST(ConfigJsonDeath, UnknownNestedKeyIsFatal)
{
    EXPECT_EXIT(
        SystemConfig::fromJson("{\"policy\": {\"knd\": \"x\"}}"),
        ::testing::ExitedWithCode(1), "knd");
    // The maintenance block holds refresh only: a patrol scrubber, a
    // RowHammer tracker or their seed are unknown keys.
    EXPECT_EXIT(
        SystemConfig::fromJson(
            "{\"maintenance\": {\"scrub\": {\"interval\": 64}}}"),
        ::testing::ExitedWithCode(1),
        "unknown key 'scrub' in maintenance");
    EXPECT_EXIT(
        SystemConfig::fromJson(
            "{\"maintenance\": {\"rowhammer\": {\"threshold\": 512}}}"),
        ::testing::ExitedWithCode(1),
        "unknown key 'rowhammer' in maintenance");
    EXPECT_EXIT(
        SystemConfig::fromJson("{\"maintenance\": {\"seed\": 1}}"),
        ::testing::ExitedWithCode(1), "unknown key 'seed' in maintenance");
}

TEST(ConfigJsonDeath, MalformedJsonIsFatalWithPosition)
{
    EXPECT_EXIT(SystemConfig::fromJson("{\"sockets\": }"),
                ::testing::ExitedWithCode(1), "config");
}
