/**
 * @file
 * Equivalence tests for the batched access engine: for every mode, op,
 * pattern and granularity, identity or demand-paged (scatterPages)
 * address space, MemorySystem::submit must leave the machine in a
 * state bit-identical to the reference per-line loop — every uncore
 * counter, LLC statistic, device buffer effect (via write
 * amplification), the page frames assigned on first touch, and the
 * accumulated simulated time (an exact floating-point comparison,
 * since the batched path is required to add per-line latencies in the
 * reference order).
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "dnn/autotm.hh"
#include "dnn/executor.hh"
#include "dnn/networks.hh"
#include "kernels/kernels.hh"
#include "obs/telemetry/telemetry.hh"

using namespace nvsim;

namespace
{

SystemConfig
config(MemoryMode mode)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.scale = 4096;
    cfg.epochBytes = 128 * kKiB;
    return cfg;
}

/**
 * config() with first-touch scattered pages of @p page scaled bytes
 * (0: the default page, one 4 KiB interleave granule at this scale).
 */
SystemConfig
scatteredConfig(MemoryMode mode, Bytes page = 0)
{
    SystemConfig cfg = config(mode);
    cfg.scatterPages = true;
    if (page)
        cfg.pageBytes = page * cfg.scale;
    return cfg;
}

/** config() with DRAM refresh on at the JEDEC nominal tREFI. */
SystemConfig
refreshConfig(MemoryMode mode)
{
    SystemConfig cfg = config(mode);
    cfg.maintenance.refresh.trefi = 7.8e-6;
    return cfg;
}

/**
 * translate() of every page overlapping @p r, in address order. Pages
 * the run never touched get frames allocated here, in the same order
 * on both systems, so equal maps also pin the frame allocator's state.
 */
std::vector<Addr>
pageFrames(MemorySystem &sys, const Region &r)
{
    std::vector<Addr> frames;
    const Bytes page = sys.config().scaledPageBytes();
    for (Addr a = r.base / page * page; a < r.base + r.size; a += page)
        frames.push_back(sys.translate(a));
    return frames;
}

/** Assert two systems are observably identical, field by field. */
void
expectIdentical(MemorySystem &batched, MemorySystem &per_line)
{
    PerfCounters cb = batched.counters();
    PerfCounters cp = per_line.counters();
    std::vector<std::uint64_t> vb, vp;
    std::vector<const char *> names;
    cb.forEachField([&](const char *name, const char *,
                        std::uint64_t v) {
        names.push_back(name);
        vb.push_back(v);
    });
    cp.forEachField(
        [&](const char *, const char *, std::uint64_t v) {
            vp.push_back(v);
        });
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(vb[i], vp[i]) << "counter " << names[i];

    EXPECT_EQ(batched.llc().hitCount(), per_line.llc().hitCount());
    EXPECT_EQ(batched.llc().missCount(), per_line.llc().missCount());
    EXPECT_EQ(batched.llc().dirtyEvictionCount(),
              per_line.llc().dirtyEvictionCount());
    EXPECT_EQ(batched.llc().ntInvalidateCount(),
              per_line.llc().ntInvalidateCount());

    // Exact: the engines must accumulate latency work in the same
    // floating-point order, not merely to a tolerance.
    EXPECT_EQ(batched.now(), per_line.now());
    EXPECT_EQ(batched.nvramWriteAmplification(),
              per_line.nvramWriteAmplification());
}

struct KernelCase
{
    KernelOp op;
    bool nontemporal;
    const char *name;
};

const KernelCase kKernelCases[] = {
    {KernelOp::ReadOnly, false, "read_only"},
    {KernelOp::WriteOnly, true, "write_nt"},
    {KernelOp::WriteOnly, false, "write_std"},
    {KernelOp::ReadModifyWrite, false, "rmw_std"},
    {KernelOp::ReadModifyWrite, true, "rmw_nt"},
};

void
runGrid(const SystemConfig &cfg)
{
    for (const KernelCase &kc : kKernelCases) {
        for (AccessPattern pattern :
             {AccessPattern::Sequential, AccessPattern::Random}) {
            for (Bytes gran : {Bytes{64}, Bytes{256}}) {
                KernelConfig k;
                k.op = kc.op;
                k.nontemporal = kc.nontemporal;
                k.pattern = pattern;
                k.granularity = gran;
                k.threads = 6;

                SCOPED_TRACE(std::string(kc.name) + " " +
                             accessPatternName(pattern) + " gran " +
                             std::to_string(gran));

                MemorySystem batched(cfg);
                MemorySystem per_line(cfg);
                ASSERT_TRUE(batched.batchedAccess());
                per_line.setBatchedAccess(false);
                std::vector<Addr> frames[2];
                for (MemorySystem *sys : {&batched, &per_line}) {
                    Region r = sys->allocateIn(MemPool::Nvram, 4 * kMiB,
                                               "arr");
                    runKernel(*sys, r, k);
                    frames[sys == &per_line] = pageFrames(*sys, r);
                }
                expectIdentical(batched, per_line);
                EXPECT_EQ(frames[0], frames[1]);
                if (cfg.maintenance.enabled()) {
                    EXPECT_GT(batched.counters().refreshSlots, 0u);
                }
            }
        }
    }
}

} // namespace

TEST(AccessRangeEquivalence, OneLmKernelGrid)
{
    runGrid(config(MemoryMode::OneLm));
    // Refresh runs on the batched engine: its per-epoch REF slots and
    // stall must match the per-line loop's.
    runGrid(refreshConfig(MemoryMode::OneLm));
}

TEST(AccessRangeEquivalence, TwoLmKernelGrid)
{
    runGrid(config(MemoryMode::TwoLm));
    // With refresh on, every DRAM cache probe pays the refresh stall.
    runGrid(refreshConfig(MemoryMode::TwoLm));
}

TEST(AccessRangeEquivalence, OneLmScatteredKernelGrid)
{
    runGrid(scatteredConfig(MemoryMode::OneLm));
}

TEST(AccessRangeEquivalence, TwoLmScatteredKernelGrid)
{
    runGrid(scatteredConfig(MemoryMode::TwoLm));
}

TEST(AccessRangeEquivalence, QueuedKernelsMatchPerLine)
{
    // Under the queued controller the lean engine takes multi-line
    // submits line by line, each line its own arrival: counters, the
    // clock and the queue-aware latency distribution must equal the
    // per-line reference's, in 2LM and in 1LM (no coalesced run).
    for (MemoryMode mode : {MemoryMode::TwoLm, MemoryMode::OneLm}) {
        SystemConfig cfg = config(mode);
        cfg.controller.scheduler = "frfcfs";
        cfg.controller.offeredGBs = 8;
        for (const KernelCase &kc : kKernelCases) {
            SCOPED_TRACE(std::string(memoryModeName(mode)) + " " +
                         kc.name);
            KernelConfig k;
            k.op = kc.op;
            k.nontemporal = kc.nontemporal;
            k.pattern = AccessPattern::Random;
            k.granularity = 256;
            k.threads = 6;

            MemorySystem batched(cfg);
            MemorySystem per_line(cfg);
            per_line.setBatchedAccess(false);
            obs::TelemetryOptions topts;
            topts.windowSeconds = 1e-4;
            obs::TelemetryRun tel_batched("batched", topts);
            obs::TelemetryRun tel_per_line("per_line", topts);
            batched.attachTelemetry(&tel_batched);
            per_line.attachTelemetry(&tel_per_line);
            for (MemorySystem *sys : {&batched, &per_line}) {
                Region r = sys->allocateIn(MemPool::Nvram, 2 * kMiB,
                                           "arr");
                runKernel(*sys, r, k);
                sys->quiesce();
                sys->detachTelemetry();
            }
            tel_batched.finish();
            tel_per_line.finish();
            expectIdentical(batched, per_line);
            EXPECT_GT(batched.counters().rowBufferHits, 0u);
            EXPECT_GT(tel_batched.quantileNs(0.99), 0.0);
            EXPECT_EQ(tel_batched.quantileNs(0.50),
                      tel_per_line.quantileNs(0.50));
            EXPECT_EQ(tel_batched.quantileNs(0.99),
                      tel_per_line.quantileNs(0.99));
        }
    }
}

TEST(AccessRangeEquivalence, OneLmDramPool)
{
    KernelConfig k;
    k.op = KernelOp::ReadModifyWrite;
    k.threads = 4;
    MemorySystem batched(config(MemoryMode::OneLm));
    MemorySystem per_line(config(MemoryMode::OneLm));
    per_line.setBatchedAccess(false);
    for (MemorySystem *sys : {&batched, &per_line}) {
        Region r = sys->allocateIn(MemPool::Dram, 4 * kMiB, "arr");
        runKernel(*sys, r, k);
    }
    expectIdentical(batched, per_line);
}

TEST(AccessRangeEquivalence, OneLmRangeSpanningPoolBoundary)
{
    // A NUMA-spill allocation crosses from the DRAM pool into NVRAM;
    // the batched engine must split its segments at the boundary.
    KernelConfig k;
    k.op = KernelOp::WriteOnly;
    k.nontemporal = true;
    k.threads = 4;
    MemorySystem batched(config(MemoryMode::OneLm));
    MemorySystem per_line(config(MemoryMode::OneLm));
    per_line.setBatchedAccess(false);
    for (MemorySystem *sys : {&batched, &per_line}) {
        Bytes dram_free = sys->poolFree(MemPool::Dram);
        Region r = sys->allocate(dram_free + 4 * kMiB, "spill");
        ASSERT_EQ(r.pool, MemPool::Dram);
        runKernel(*sys, r, k);
    }
    expectIdentical(batched, per_line);
}

TEST(AccessRangeEquivalence, UnalignedAndOddSizes)
{
    for (MemoryMode mode : {MemoryMode::OneLm, MemoryMode::TwoLm}) {
        SCOPED_TRACE(memoryModeName(mode));
        MemorySystem batched(config(mode));
        MemorySystem per_line(config(mode));
        per_line.setBatchedAccess(false);
        for (MemorySystem *sys : {&batched, &per_line}) {
            Region r = sys->allocateIn(MemPool::Nvram, 8 * kMiB, "arr");
            // Unaligned bases, odd sizes, zero size (one line), ranges
            // spanning many interleave chunks, and a mid-run epoch
            // boundary (the region is larger than epochBytes).
            sys->submit({0, CpuOp::Load, r.base + 3, 1});
            sys->submit({1, CpuOp::Store, r.base + 130, 517});
            sys->submit({2, CpuOp::NtStore, r.base + 5 * kLineSize + 7,
                        200});
            sys->submit({0, CpuOp::Load, r.base + 4096 - 32, 64});
            sys->submit({3, CpuOp::Load, r.base + 1000, 0});
            sys->submit({1, CpuOp::Load, r.base, 6 * kMiB});
            sys->submit({2, CpuOp::NtStore, r.base + 123, 3 * kMiB});
            sys->quiesce();
        }
        expectIdentical(batched, per_line);
    }
}

TEST(AccessRangeEquivalence, EngineToggleMidRun)
{
    // Switching engines between phases must not disturb state: run a
    // phase batched, a phase per-line, and compare against all-batched.
    MemorySystem toggled(config(MemoryMode::TwoLm));
    MemorySystem batched(config(MemoryMode::TwoLm));
    KernelConfig k;
    k.op = KernelOp::ReadOnly;
    k.threads = 4;
    for (MemorySystem *sys : {&toggled, &batched}) {
        Region r = sys->allocateIn(MemPool::Nvram, 4 * kMiB, "arr");
        runKernel(*sys, r, k);
        if (sys == &toggled)
            sys->setBatchedAccess(false);
        runKernel(*sys, r, k);
    }
    expectIdentical(batched, toggled);
}

namespace
{

/**
 * Run a kernel on @p cfg, then more traffic from unaligned offsets, on
 * both engines.
 */
void
runOnBothEngines(const SystemConfig &cfg)
{
    MemorySystem batched(cfg);
    MemorySystem per_line(cfg);
    per_line.setBatchedAccess(false);
    KernelConfig k;
    k.op = KernelOp::ReadModifyWrite;
    k.threads = 3;
    std::vector<Addr> frames[2];
    for (MemorySystem *sys : {&batched, &per_line}) {
        Region r = sys->allocateIn(MemPool::Nvram, 6 * kMiB, "arr");
        runKernel(*sys, r, k);
        sys->submit({0, CpuOp::Load, r.base + 777, 2 * kMiB});
        sys->submit({1, CpuOp::NtStore, r.base + 64, 1 * kMiB});
        sys->quiesce();
        frames[sys == &per_line] = pageFrames(*sys, r);
    }
    expectIdentical(batched, per_line);
    EXPECT_EQ(frames[0], frames[1]);
}

} // namespace

TEST(AccessRangeEquivalence, NonPowerOfTwoChannelGrid)
{
    // Both engines route through the same cached interleave map. A
    // 5-channel socket takes its division by a non-power-of-two
    // channel count end to end, on identity and on demand-paged
    // address spaces: batched and per-line engines must agree exactly.
    for (MemoryMode mode : {MemoryMode::OneLm, MemoryMode::TwoLm}) {
        for (bool scattered : {false, true}) {
            SCOPED_TRACE(std::string(memoryModeName(mode)) +
                         (scattered ? " scattered" : ""));
            SystemConfig cfg =
                scattered ? scatteredConfig(mode) : config(mode);
            cfg.channelsPerSocket = 5;
            runOnBothEngines(cfg);
        }
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
    std::vector<std::string> traceNames;
    std::vector<Sample> traceSamples;
    std::vector<Addr> frames;  //!< pageFrames() of every region
};

RunDigest
digest(MemorySystem &sys, const std::vector<Region> &regions)
{
    RunDigest d;
    d.counters = sys.counters().asArray();
    d.now = sys.now();
    d.amplification = sys.nvramWriteAmplification();
    d.llcHits = sys.llc().hitCount();
    d.llcMisses = sys.llc().missCount();
    for (const std::string &name : sys.trace().names()) {
        d.traceNames.push_back(name);
        const auto &ring = sys.trace().channel(name);
        for (std::size_t i = 0; i < ring.size(); ++i)
            d.traceSamples.push_back(ring[i]);
    }
    for (const Region &r : regions) {
        for (Addr f : pageFrames(sys, r))
            d.frames.push_back(f);
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
    EXPECT_EQ(a.traceNames, b.traceNames);
    ASSERT_EQ(a.traceSamples.size(), b.traceSamples.size());
    for (std::size_t i = 0; i < a.traceSamples.size(); ++i) {
        EXPECT_EQ(a.traceSamples[i].time, b.traceSamples[i].time);
        EXPECT_EQ(a.traceSamples[i].value, b.traceSamples[i].value);
    }
    EXPECT_EQ(a.frames, b.frames);
}

/**
 * Mixed demand kinds, LLC re-touches among misses, NT stores and a DMA
 * copy, over epochs small enough that every call crosses boundaries.
 * In 1LM a NUMA-spill region then takes loads and NT stores across
 * the DRAM/NVRAM pool boundary. @p cfg picks the mode and the page
 * map.
 */
RunDigest
driveMixed(SystemConfig cfg, bool per_line)
{
    cfg.epochBytes = 64 * kKiB;
    MemorySystem sys(cfg);
    if (per_line)
        sys.setBatchedAccess(false);
    Region a = sys.allocate(768 * kKiB, "a");
    Region b = sys.allocate(256 * kKiB, "b");
    sys.setActiveThreads(4);
    sys.submit({0, CpuOp::Load, a.base, a.size});
    sys.submit({1, CpuOp::Store, b.base, b.size});
    // Re-touch a prefix: LLC hits interleave with misses, so the hit
    // latencies must accumulate in the per-line order.
    sys.submit({0, CpuOp::Load, a.base, 96 * kKiB});
    sys.submit({2, CpuOp::NtStore, a.base + 128 * kKiB, 128 * kKiB});
    sys.dmaCopy(b.base, a.base, 32 * kKiB);
    sys.submit({3, CpuOp::Load, b.base, b.size});
    std::vector<Region> regions{a, b};
    if (cfg.mode == MemoryMode::OneLm) {
        Region spill = sys.allocate(
            sys.poolFree(MemPool::Dram) + 192 * kKiB, "spill");
        const Addr end = spill.base + spill.size;
        sys.submit({1, CpuOp::Load, end - 384 * kKiB + 8, 320 * kKiB});
        sys.submit({2, CpuOp::NtStore, end - 256 * kKiB, 256 * kKiB});
        sys.submit({3, CpuOp::Store, end - 300 * kKiB, 200 * kKiB});
        regions.push_back({"tail", end - 384 * kKiB, 384 * kKiB});
    }
    sys.quiesce();
    return digest(sys, regions);
}

} // namespace

TEST(AccessRangeEquivalence, TwoLmMixedDriveMatchesPerLine)
{
    RunDigest batched = driveMixed(config(MemoryMode::TwoLm), false);
    EXPECT_FALSE(batched.traceSamples.empty());
    expectIdentical(batched,
                    driveMixed(config(MemoryMode::TwoLm), true));
}

TEST(AccessRangeEquivalence, OneLmMixedDriveMatchesPerLine)
{
    RunDigest batched = driveMixed(config(MemoryMode::OneLm), false);
    EXPECT_FALSE(batched.traceSamples.empty());
    expectIdentical(batched,
                    driveMixed(config(MemoryMode::OneLm), true));
    // Refresh on: the DRAM-pool loads, runs and stores of the batched
    // engine pay the same refresh stall as the per-line loop's.
    RunDigest refreshed =
        driveMixed(refreshConfig(MemoryMode::OneLm), false);
    EXPECT_NE(refreshed.now, batched.now);
    expectIdentical(refreshed,
                    driveMixed(refreshConfig(MemoryMode::OneLm), true));
}

TEST(AccessRangeEquivalence, ScatteredMixedDriveMatchesPerLine)
{
    // The default page (one interleave granule) and a 5 KiB page,
    // which is not a multiple of the granule, so frames straddle
    // interleave chunks and the pools round down to whole pages.
    for (MemoryMode mode : {MemoryMode::OneLm, MemoryMode::TwoLm}) {
        for (Bytes page : {Bytes{0}, Bytes{5 * kKiB}}) {
            SCOPED_TRACE(std::string(memoryModeName(mode)) + " page " +
                         std::to_string(page));
            const SystemConfig cfg = scatteredConfig(mode, page);
            RunDigest batched = driveMixed(cfg, false);
            EXPECT_FALSE(batched.traceSamples.empty());
            expectIdentical(batched, driveMixed(cfg, true));
        }
    }
}

namespace
{

/**
 * 1LM at scale 2^20 with 5 KiB pages and interleave granules: the
 * 192 KiB DRAM pool is 38.4 pages, so page-granular pools only work
 * if the constructor rounds it down to 38 whole pages.
 */
SystemConfig
fiveKiBPageConfig()
{
    SystemConfig cfg = config(MemoryMode::OneLm);
    cfg.scale = 1u << 20;
    cfg.scatterPages = true;
    cfg.interleaveGranularity = 5 * kKiB;
    cfg.pageBytes = 5 * kKiB * cfg.scale;
    return cfg;
}

} // namespace

TEST(AccessRangeEquivalence, ScatteredFrameStraddlingPoolBoundary)
{
    // The DRAM pool rounds down to whole pages, so no frame straddles
    // the pool boundary and a region allocated only in NVRAM never
    // reaches DRAM. Touching nearly every NVRAM page hands out nearly
    // every NVRAM frame (the last 16 KiB stay free).
    SystemConfig cfg = fiveKiBPageConfig();
    MemorySystem batched(cfg);
    MemorySystem per_line(cfg);
    per_line.setBatchedAccess(false);
    std::vector<Addr> frames[2];
    for (MemorySystem *sys : {&batched, &per_line}) {
        ASSERT_EQ(sys->poolFree(MemPool::Dram), 38 * 5 * kKiB);
        Region r = sys->allocateIn(
            MemPool::Nvram, sys->poolFree(MemPool::Nvram) - 16 * kKiB,
            "nvram");
        EXPECT_EQ(r.base % (5 * kKiB), 0u);
        sys->submit({0, CpuOp::Load, r.base, r.size});
        sys->submit({1, CpuOp::NtStore, r.base, r.size});
        sys->submit({2, CpuOp::Store, r.base + 100, r.size / 2});
        sys->quiesce();
        frames[sys == &per_line] = pageFrames(*sys, r);
    }
    expectIdentical(batched, per_line);
    EXPECT_EQ(frames[0], frames[1]);
    for (MemorySystem *sys : {&batched, &per_line}) {
        EXPECT_EQ(sys->counters().dramRead, 0u);
        EXPECT_EQ(sys->counters().dramWrite, 0u);
    }
    EXPECT_GT(batched.counters().nvramRead, 0u);
}

TEST(AccessRangeEquivalence, ScatteredPoolBoundaryPageStaysInItsPool)
{
    // A virtual page that spanned the pool boundary got one frame from
    // the pool of whichever side was touched first. With whole-page
    // pools, touching the DRAM region's last line first leaves the
    // NVRAM region served by NVRAM alone.
    SystemConfig cfg = fiveKiBPageConfig();
    MemorySystem batched(cfg);
    MemorySystem per_line(cfg);
    per_line.setBatchedAccess(false);
    for (MemorySystem *sys : {&batched, &per_line}) {
        Region dram = sys->allocateIn(
            MemPool::Dram, sys->poolFree(MemPool::Dram), "dram");
        Region nvram = sys->allocateIn(MemPool::Nvram, 64 * kKiB, "nvram");
        sys->submit(
            {0, CpuOp::Load, dram.base + dram.size - kLineSize, kLineSize});
        sys->quiesce();
        sys->resetCounters();
        sys->submit({0, CpuOp::Load, nvram.base, nvram.size});
        sys->quiesce();
        EXPECT_EQ(sys->counters().dramRead, 0u);
        EXPECT_EQ(sys->counters().nvramRead, 64 * kKiB / kLineSize);
    }
    expectIdentical(batched, per_line);
}

TEST(AccessRangeEquivalence, ScatteredWholeDramPoolHasEveryFrame)
{
    // Loading every line of the DRAM pool maps every one of its pages;
    // a pool that owned fewer frames than it had pages ran dry here.
    SystemConfig cfg = fiveKiBPageConfig();
    MemorySystem batched(cfg);
    MemorySystem per_line(cfg);
    per_line.setBatchedAccess(false);
    std::vector<Addr> frames[2];
    for (MemorySystem *sys : {&batched, &per_line}) {
        Region dram = sys->allocateIn(
            MemPool::Dram, sys->poolFree(MemPool::Dram), "dram");
        sys->submit({0, CpuOp::Load, dram.base, dram.size});
        sys->quiesce();
        EXPECT_EQ(sys->counters().dramRead, dram.size / kLineSize);
        EXPECT_EQ(sys->counters().nvramRead, 0u);
        frames[sys == &per_line] = pageFrames(*sys, dram);
    }
    expectIdentical(batched, per_line);
    EXPECT_EQ(frames[0], frames[1]);
    ASSERT_EQ(frames[0].size(), 38u);
    for (Addr f : frames[0])
        EXPECT_LT(f, 38 * 5 * kKiB);
}

namespace
{

/**
 * Graph-kernel shaped traffic: 4 B and 16 B Load, Store and NtStore
 * submits at random lines of a region larger than the LLC, including
 * 16 B accesses at line offset 56 that straddle two lines, plus
 * touchLine() calls, over epochs small enough to cross often.
 */
RunDigest
driveElements(SystemConfig cfg, bool per_line)
{
    cfg.epochBytes = 16 * kKiB;
    MemorySystem sys(cfg);
    if (per_line)
        sys.setBatchedAccess(false);
    Region r = sys.allocate(1 * kMiB, "elems");
    sys.setActiveThreads(4);
    const std::uint64_t lines = r.size / kLineSize - 1;
    std::uint64_t x = 12345;
    for (unsigned i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const unsigned t = i % 4;
        const Addr line = r.base + ((x >> 24) % lines) * kLineSize;
        const Addr word = line + ((x >> 16) % 16) * 4;
        switch ((x >> 8) % 9) {
          case 0: sys.submit({t, CpuOp::Load, word, 4}); break;
          case 1: sys.submit({t, CpuOp::Store, word, 4}); break;
          case 2: sys.submit({t, CpuOp::NtStore, word, 4}); break;
          case 3: sys.submit({t, CpuOp::Load, line + 48, 16}); break;
          case 4: sys.submit({t, CpuOp::Load, line + 56, 16}); break;
          case 5: sys.submit({t, CpuOp::Store, line + 56, 16}); break;
          case 6: sys.submit({t, CpuOp::NtStore, line + 56, 16}); break;
          case 7: sys.touchLine(t, CpuOp::Load, line); break;
          default: sys.touchLine(t, CpuOp::Store, line); break;
        }
    }
    sys.quiesce();
    return digest(sys, {r});
}

} // namespace

TEST(AccessRangeEquivalence, OneLineSubmitsMatchPerLine)
{
    for (MemoryMode mode : {MemoryMode::OneLm, MemoryMode::TwoLm}) {
        for (bool scatter : {false, true}) {
            SCOPED_TRACE(std::string(memoryModeName(mode)) +
                         (scatter ? " scattered" : " identity"));
            const SystemConfig cfg =
                scatter ? scatteredConfig(mode) : config(mode);
            RunDigest batched = driveElements(cfg, false);
            EXPECT_FALSE(batched.traceSamples.empty());
            EXPECT_GT(batched.llcHits, 0u);
            EXPECT_GT(batched.llcMisses, 0u);
            expectIdentical(batched, driveElements(cfg, true));
        }
    }
}

namespace
{

SystemConfig
dnnConfig(MemoryMode mode, std::uint64_t scale)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.scale = scale;
    cfg.epochBytes = 16 * kKiB;
    cfg.scatterPages = true;  // OS demand paging, as the DNN benches
    return cfg;
}

dnn::ExecutorConfig
dnnExecConfig()
{
    dnn::ExecutorConfig e;
    e.threads = 8;
    e.chunkBytes = 16 * kKiB;
    return e;
}

/** One 2LM training iteration whose footprint exceeds the cache. */
RunDigest
driveExecutor(bool per_line)
{
    MemorySystem sys(dnnConfig(MemoryMode::TwoLm, 1u << 20));
    if (per_line)
        sys.setBatchedAccess(false);
    dnn::ComputeGraph g = dnn::buildDenseNet264(1536);
    dnn::Executor ex(sys, g, dnnExecConfig());
    ex.runIteration();
    return digest(sys, {ex.arena(), ex.weights()});
}

/** One AutoTM iteration in 1LM whose tight budget forces CPU moves. */
RunDigest
driveAutoTm(bool per_line)
{
    MemorySystem sys(dnnConfig(MemoryMode::OneLm, 1u << 20));
    if (per_line)
        sys.setBatchedAccess(false);
    dnn::ComputeGraph g = dnn::buildDenseNet264(1536);
    dnn::AutoTmConfig cfg;
    cfg.exec = dnnExecConfig();
    dnn::AutoTmExecutor ex(sys, g, cfg);
    ex.runIteration();
    EXPECT_GT(ex.stats().movesToNvram, 0u);
    EXPECT_GT(ex.stats().movesToDram, 0u);
    // Both pools as allocated: AutoTM's DRAM budget and NVRAM slots.
    const SystemConfig &c = sys.config();
    const Region dram{"dram", 0, c.dramTotal() - sys.poolFree(MemPool::Dram)};
    const Region nvram{"nvram", c.dramTotal(),
                       c.nvramTotal() - sys.poolFree(MemPool::Nvram)};
    return digest(sys, {dram, nvram});
}

} // namespace

TEST(AccessRangeEquivalence, ExecutorIterationMatchesPerLine)
{
    RunDigest batched = driveExecutor(false);
    EXPECT_FALSE(batched.traceSamples.empty());
    EXPECT_GT(batched.llcMisses, 1000u) << batched.llcMisses;
    expectIdentical(batched, driveExecutor(true));
}

TEST(AccessRangeEquivalence, AutoTmIterationMatchesPerLine)
{
    RunDigest batched = driveAutoTm(false);
    EXPECT_FALSE(batched.traceSamples.empty());
    EXPECT_GT(batched.llcMisses, 1000u) << batched.llcMisses;
    expectIdentical(batched, driveAutoTm(true));
}
