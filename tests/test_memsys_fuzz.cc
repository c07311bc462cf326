/**
 * @file
 * Randomized consistency checks over the whole MemorySystem: long
 * pseudo-random operation streams must preserve global invariants in
 * every mode and configuration — the cross-cutting safety net under
 * all the directed tests.
 */

#include <gtest/gtest.h>

#include <array>
#include <ostream>
#include <tuple>

#include "core/rng.hh"
#include "sys/memsys.hh"

using namespace nvsim;

namespace
{

struct FuzzParams
{
    MemoryMode mode;
    bool scatter;
    unsigned ways;
    DdoMode ddo;
};

/* Names the case by its fields; the default byte dump would include
   uninitialised padding and so differ from build to build. */
void
PrintTo(const FuzzParams &fp, std::ostream *os)
{
    *os << memoryModeName(fp.mode) << (fp.scatter ? " scatter" : "")
        << " ways=" << fp.ways << " ddo=" << ddoModeName(fp.ddo);
}

class MemSysFuzz : public ::testing::TestWithParam<FuzzParams>
{
};

} // namespace

TEST_P(MemSysFuzz, InvariantsHoldUnderRandomTraffic)
{
    const FuzzParams &fp = GetParam();
    SystemConfig cfg;
    cfg.mode = fp.mode;
    cfg.scale = 1u << 14;
    cfg.scatterPages = fp.scatter;
    cfg.cacheWays = fp.ways;
    cfg.ddo.mode = fp.ddo;
    cfg.epochBytes = 32 * kKiB;
    MemorySystem sys(cfg);

    Region arr = sys.allocate(cfg.dramTotal() * 3 / 2, "fuzz");
    sys.setActiveThreads(6);

    Rng rng(0xF00D + fp.ways);
    std::uint64_t issued_lines = 0;
    double last_now = 0;

    for (int step = 0; step < 60000; ++step) {
        unsigned thread = static_cast<unsigned>(rng.below(6));
        Addr addr = arr.base + rng.below(arr.size / kLineSize) *
                                   kLineSize;
        Bytes size = (1 + rng.below(4)) * kLineSize;
        if (addr + size > arr.base + arr.size)
            size = kLineSize;
        CpuOp op = static_cast<CpuOp>(rng.below(3));
        sys.submit({thread, op, addr, size});
        issued_lines += size / kLineSize;

        if (rng.below(1000) == 0) {
            sys.advanceEpoch();
            // Time must be monotone.
            ASSERT_GE(sys.now(), last_now);
            last_now = sys.now();
        }
    }
    sys.quiesce();

    PerfCounters c = sys.counters();

    // Demand conservation: every line either hit the LLC or became an
    // LLC read/write; NT stores and dirty evictions add LLC writes but
    // never lose requests.
    ASSERT_LE(c.demand(), 2 * issued_lines);

    if (fp.mode == MemoryMode::TwoLm) {
        // Tag statistics partition the demand stream.
        EXPECT_EQ(c.tagHit + c.tagMissClean + c.tagMissDirty + c.ddoHit,
                  c.demand());
        // Table I bounds: amplification within [1, 5].
        EXPECT_GE(c.amplification(), 1.0);
        EXPECT_LE(c.amplification(), 5.0);
        // Every NVRAM read is a miss fill; misses can't exceed demand.
        EXPECT_LE(c.nvramRead, c.demand());
    } else {
        // App direct: exactly one device access per request.
        EXPECT_DOUBLE_EQ(c.amplification(), 1.0);
        EXPECT_EQ(c.tagHit + c.tagMissClean + c.tagMissDirty, 0u);
    }

    // The epoch machinery leaves nothing buffered after quiesce.
    for (unsigned i = 0; i < sys.numChannels(); ++i) {
        EXPECT_EQ(sys.channel(i).nvram().epoch().demandReads, 0u);
        EXPECT_EQ(sys.channel(i).dram().epoch().casReads, 0u);
    }
    EXPECT_GT(sys.now(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MemSysFuzz,
    ::testing::Values(
        FuzzParams{MemoryMode::TwoLm, false, 1, DdoMode::RecentTracker},
        FuzzParams{MemoryMode::TwoLm, true, 1, DdoMode::RecentTracker},
        FuzzParams{MemoryMode::TwoLm, false, 4, DdoMode::None},
        FuzzParams{MemoryMode::TwoLm, true, 2, DdoMode::Oracle},
        FuzzParams{MemoryMode::OneLm, false, 1, DdoMode::None},
        FuzzParams{MemoryMode::OneLm, true, 1, DdoMode::None}));

// --- Refresh fuzz --------------------------------------------------------

namespace
{

/** Random but valid refresh plan derived from a fuzz seed. */
MaintenanceConfig
randomMaintenanceConfig(Rng &rng)
{
    MaintenanceConfig m;
    auto rate = [&rng](double max) {
        return static_cast<double>(rng.below(1000)) / 1000.0 * max;
    };
    if (rng.below(4) != 0) {
        m.refresh.trefi = 3.9e-6 + rate(8e-6);
        m.refresh.trfc = 200e-9 + rate(150e-9);
    }
    return m;
}

} // namespace

class MemSysMaintenanceFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MemSysMaintenanceFuzz, MaintenanceNeverBreaksInvariants)
{
    Rng rng(GetParam());
    SystemConfig cfg;
    cfg.mode = rng.below(2) ? MemoryMode::TwoLm : MemoryMode::OneLm;
    cfg.scale = 1u << 14;
    cfg.scatterPages = rng.below(2) != 0;
    cfg.cacheWays = 1 + static_cast<unsigned>(rng.below(4));
    cfg.epochBytes = 32 * kKiB;
    cfg.maintenance = randomMaintenanceConfig(rng);
    cfg.validate();
    MemorySystem sys(cfg);

    Region arr = sys.allocate(cfg.dramTotal() * 3 / 2, "fuzz");
    sys.setActiveThreads(6);

    double last_now = 0;
    std::array<std::uint64_t, 2> last_snap{};
    for (int step = 0; step < 40000; ++step) {
        unsigned thread = static_cast<unsigned>(rng.below(6));
        Addr addr =
            arr.base + rng.below(arr.size / kLineSize) * kLineSize;
        Bytes size = (1 + rng.below(4)) * kLineSize;
        if (addr + size > arr.base + arr.size)
            size = kLineSize;
        sys.submit({thread, static_cast<CpuOp>(rng.below(3)), addr,
                   size});

        if (rng.below(2000) == 0) {
            sys.advanceEpoch();
            ASSERT_GE(sys.now(), last_now);
            last_now = sys.now();
            // Refresh counters only ever grow.
            const PerfCounters c = sys.counters();
            std::array<std::uint64_t, 2> snap{c.refreshSlots,
                                              c.maintenanceStallNs};
            for (std::size_t i = 0; i < snap.size(); ++i)
                ASSERT_GE(snap[i], last_snap[i]) << "counter " << i;
            last_snap = snap;
        }
    }
    sys.quiesce();

    const PerfCounters c = sys.counters();
    if (cfg.mode == MemoryMode::TwoLm) {
        // Refresh steals bank time, not device accesses: demand is
        // still fully classified and Table I's bounds hold.
        EXPECT_EQ(c.tagHit + c.tagMissClean + c.tagMissDirty + c.ddoHit,
                  c.demand());
        EXPECT_GE(c.amplification(), 1.0);
        EXPECT_LE(c.amplification(), 5.0);
    }
    if (cfg.maintenance.refresh.enabled()) {
        EXPECT_GT(c.refreshSlots, 0u);
        EXPECT_GT(c.maintenanceStallNs, 0u);
    } else {
        EXPECT_EQ(c.refreshSlots, 0u);
        EXPECT_EQ(c.maintenanceStallNs, 0u);
    }

    // Nothing left buffered after quiesce.
    for (unsigned i = 0; i < sys.numChannels(); ++i) {
        EXPECT_EQ(sys.channel(i).nvram().epoch().demandReads, 0u);
        EXPECT_EQ(sys.channel(i).dram().epoch().casReads, 0u);
    }
    EXPECT_GT(sys.now(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemSysMaintenanceFuzz,
                         ::testing::Values(0x3A1111u, 0x3A1112u,
                                           0x3A1113u, 0x3A1114u,
                                           0x3A1115u, 0x3A1116u));

TEST(MemSysMaintenanceFuzz, MaintenanceReplayDeterminism)
{
    // Refresh on: two identical runs produce bit-identical counters,
    // REF slots and time.
    auto run = [] {
        SystemConfig cfg;
        cfg.mode = MemoryMode::TwoLm;
        cfg.scale = 1u << 14;
        cfg.scatterPages = true;
        cfg.maintenance.refresh.trefi = 7.8e-6;
        MemorySystem sys(cfg);
        Region arr = sys.allocate(cfg.dramTotal() * 2, "fuzz");
        sys.setActiveThreads(4);
        Rng rng(77);
        for (int i = 0; i < 20000; ++i) {
            sys.submit({static_cast<unsigned>(rng.below(4)),
                       static_cast<CpuOp>(rng.below(3)),
                       arr.base +
                           rng.below(arr.size / kLineSize) * kLineSize,
                       kLineSize});
        }
        sys.quiesce();
        const PerfCounters c = sys.counters();
        return std::make_tuple(c.deviceAccesses(), c.refreshSlots,
                               c.maintenanceStallNs, sys.now());
    };
    EXPECT_EQ(run(), run());
}

TEST(MemSysFuzz, ReplayDeterminism)
{
    // The same random stream on two identical machines produces
    // bit-identical counters and time.
    auto run = [] {
        SystemConfig cfg;
        cfg.mode = MemoryMode::TwoLm;
        cfg.scale = 1u << 14;
        cfg.scatterPages = true;
        MemorySystem sys(cfg);
        Region arr = sys.allocate(cfg.dramTotal() * 2, "fuzz");
        sys.setActiveThreads(4);
        Rng rng(77);
        for (int i = 0; i < 20000; ++i) {
            sys.submit({static_cast<unsigned>(rng.below(4)),
                       static_cast<CpuOp>(rng.below(3)),
                       arr.base +
                           rng.below(arr.size / kLineSize) * kLineSize,
                       kLineSize});
        }
        sys.quiesce();
        return std::make_tuple(sys.counters().deviceAccesses(),
                               sys.counters().tagMissDirty, sys.now());
    };
    EXPECT_EQ(run(), run());
}
