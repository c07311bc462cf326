/**
 * @file
 * Tests for the MemorySystem facade: allocation, address mapping,
 * timing epochs, counter aggregation and trace recording.
 */

#include <gtest/gtest.h>

#include <set>

#include "sys/memsys.hh"

using namespace nvsim;

namespace
{

SystemConfig
smallConfig(MemoryMode mode)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.scale = 4096;  // 32 GiB DRAM DIMM -> 8 MiB, NVRAM -> 128 MiB
    cfg.epochBytes = 64 * kKiB;
    return cfg;
}

} // namespace

TEST(MemorySystemAlloc, TwoLmIsFlatNvramSpace)
{
    MemorySystem sys(smallConfig(MemoryMode::TwoLm));
    Region r1 = sys.allocate(1 * kMiB, "a");
    Region r2 = sys.allocate(1 * kMiB, "b");
    EXPECT_EQ(r1.base, 0u);
    EXPECT_EQ(r2.base, r1.size);
    EXPECT_EQ(r1.pool, MemPool::Nvram);
    // In 2LM everything is NVRAM-backed.
    EXPECT_EQ(sys.poolOf(r1.base), MemPool::Nvram);
}

TEST(MemorySystemAlloc, OneLmPrefersDramThenSpills)
{
    SystemConfig cfg = smallConfig(MemoryMode::OneLm);
    MemorySystem sys(cfg);
    Bytes dram_total = cfg.dramTotal();
    Region a = sys.allocate(dram_total / 2, "a");
    EXPECT_EQ(a.pool, MemPool::Dram);
    // Too big for the remaining DRAM: fills it and spills into NVRAM.
    Region b = sys.allocate(dram_total, "b");
    EXPECT_EQ(sys.poolOf(a.base), MemPool::Dram);
    EXPECT_EQ(sys.poolOf(b.base), MemPool::Dram);
    EXPECT_EQ(sys.poolOf(b.base + b.size - kLineSize), MemPool::Nvram);
    // With DRAM exhausted, the next region is pure NVRAM.
    Region c = sys.allocate(kMiB, "c");
    EXPECT_EQ(c.pool, MemPool::Nvram);
    EXPECT_EQ(sys.poolOf(c.base), MemPool::Nvram);
}

TEST(MemorySystemAlloc, ExplicitPoolPlacement)
{
    MemorySystem sys(smallConfig(MemoryMode::OneLm));
    Region d = sys.allocateIn(MemPool::Dram, kMiB, "dram");
    Region n = sys.allocateIn(MemPool::Nvram, kMiB, "nvram");
    EXPECT_EQ(d.pool, MemPool::Dram);
    EXPECT_EQ(n.pool, MemPool::Nvram);
    EXPECT_TRUE(d.contains(d.base));
    EXPECT_FALSE(d.contains(n.base));
}

TEST(MemorySystemAlloc, DramPoolRequiresOneLm)
{
    MemorySystem sys(smallConfig(MemoryMode::TwoLm));
    EXPECT_DEATH(sys.allocateIn(MemPool::Dram, kMiB, "x"), "1LM");
}

TEST(MemorySystemAlloc, PoolExhaustionIsFatal)
{
    SystemConfig cfg = smallConfig(MemoryMode::OneLm);
    MemorySystem sys(cfg);
    EXPECT_DEATH(
        sys.allocateIn(MemPool::Dram, cfg.dramTotal() + kMiB, "big"),
        "exhausted");
}

TEST(MemorySystem, ChannelInterleaving)
{
    SystemConfig cfg = smallConfig(MemoryMode::TwoLm);
    MemorySystem sys(cfg);
    // Consecutive interleave granules round-robin the channels.
    for (unsigned i = 0; i < 2 * cfg.totalChannels(); ++i) {
        Addr a = static_cast<Addr>(i) * cfg.interleaveGranularity;
        EXPECT_EQ(sys.channelOf(a), i % cfg.totalChannels());
    }
}

TEST(MemorySystem, AccessAdvancesTime)
{
    MemorySystem sys(smallConfig(MemoryMode::TwoLm));
    Region r = sys.allocate(4 * kMiB, "arr");
    EXPECT_DOUBLE_EQ(sys.now(), 0.0);
    for (Addr a = 0; a < r.size; a += kLineSize)
        sys.submit({0, CpuOp::Load, r.base + a, kLineSize});
    sys.quiesce();
    EXPECT_GT(sys.now(), 0.0);
}

TEST(MemorySystem, MultiLineAccessTouchesEveryLine)
{
    MemorySystem sys(smallConfig(MemoryMode::TwoLm));
    Region r = sys.allocate(kMiB, "arr");
    sys.submit({0, CpuOp::Load, r.base, 512});
    sys.quiesce();
    EXPECT_EQ(sys.counters().llcReads, 8u);  // 512 B = 8 lines
}

TEST(MemorySystem, UnalignedAccessCoversStraddledLines)
{
    MemorySystem sys(smallConfig(MemoryMode::TwoLm));
    Region r = sys.allocate(kMiB, "arr");
    // 8 bytes spanning a line boundary -> two lines.
    sys.submit({0, CpuOp::Load, r.base + 60, 8});
    sys.quiesce();
    EXPECT_EQ(sys.counters().llcReads, 2u);
}

TEST(MemorySystem, LlcFiltersRepeatedAccesses)
{
    MemorySystem sys(smallConfig(MemoryMode::TwoLm));
    Region r = sys.allocate(kMiB, "arr");
    sys.submit({0, CpuOp::Load, r.base, kLineSize});
    sys.submit({0, CpuOp::Load, r.base, kLineSize});
    sys.submit({0, CpuOp::Load, r.base, kLineSize});
    sys.quiesce();
    // Only the first access reaches the IMC.
    EXPECT_EQ(sys.counters().llcReads, 1u);
}

TEST(MemorySystem, NtStoreBypassesLlc)
{
    MemorySystem sys(smallConfig(MemoryMode::TwoLm));
    Region r = sys.allocate(kMiB, "arr");
    sys.submit({0, CpuOp::NtStore, r.base, kLineSize});
    sys.submit({0, CpuOp::NtStore, r.base, kLineSize});
    sys.quiesce();
    EXPECT_EQ(sys.counters().llcWrites, 2u);
    EXPECT_FALSE(sys.llc().resident(r.base));
}

TEST(MemorySystem, StandardStoreWritesBackOnEviction)
{
    SystemConfig cfg = smallConfig(MemoryMode::TwoLm);
    MemorySystem sys(cfg);
    Region r = sys.allocate(8 * kMiB, "arr");
    // Dirty far more lines than the LLC holds; evictions must generate
    // LLC writes downstream.
    Bytes span = sys.llc().capacity() * 4;
    for (Addr a = 0; a < span; a += kLineSize)
        sys.submit({0, CpuOp::Store, r.base + a, kLineSize});
    sys.quiesce();
    EXPECT_GT(sys.counters().llcWrites, 0u);
}

TEST(MemorySystem, CountersAggregateAcrossChannels)
{
    SystemConfig cfg = smallConfig(MemoryMode::TwoLm);
    MemorySystem sys(cfg);
    Region r = sys.allocate(8 * kMiB, "arr");
    for (Addr a = 0; a < r.size; a += kLineSize)
        sys.submit({0, CpuOp::Load, r.base + a, kLineSize});
    sys.quiesce();
    PerfCounters agg = sys.counters();
    PerfCounters manual;
    for (unsigned c = 0; c < sys.numChannels(); ++c)
        manual += sys.channel(c).counters();
    EXPECT_EQ(agg.demand(), manual.demand());
    EXPECT_EQ(agg.deviceAccesses(), manual.deviceAccesses());
    // Traffic actually spread over multiple channels.
    EXPECT_GT(sys.channel(0).counters().llcReads, 0u);
    EXPECT_GT(sys.channel(1).counters().llcReads, 0u);
}

TEST(MemorySystem, MoreThreadsFinishFaster)
{
    SystemConfig cfg = smallConfig(MemoryMode::OneLm);
    auto run = [&](unsigned threads) {
        MemorySystem sys(cfg);
        Region r = sys.allocateIn(MemPool::Nvram, 8 * kMiB, "arr");
        sys.setActiveThreads(threads);
        for (Addr a = 0; a < r.size; a += kLineSize) {
            sys.submit({static_cast<unsigned>(a / kLineSize % threads),
                        CpuOp::Load, r.base + a, kLineSize});
        }
        sys.quiesce();
        return sys.now();
    };
    double t1 = run(1);
    double t4 = run(4);
    EXPECT_LT(t4, t1);
    // But never faster than the NVRAM media allows: speedup saturates.
    double t16 = run(16);
    EXPECT_LT(t16, t4 * 1.01);
    EXPECT_GT(t16 * 8, t1 / 16);
}

TEST(MemorySystem, ComputeTimeSetsEpochFloor)
{
    MemorySystem sys(smallConfig(MemoryMode::TwoLm));
    sys.addComputeTime(0.5);
    sys.advanceEpoch();
    EXPECT_GE(sys.now(), 0.5);
}

TEST(MemorySystem, ResetCountersKeepsCacheState)
{
    MemorySystem sys(smallConfig(MemoryMode::TwoLm));
    Region r = sys.allocate(kMiB, "arr");
    sys.submit({0, CpuOp::Load, r.base, kLineSize});
    sys.advanceEpoch();  // (not quiesce: that would flush the LLC)
    sys.resetCounters();
    EXPECT_EQ(sys.counters().demand(), 0u);
    EXPECT_DOUBLE_EQ(sys.now(), 0.0);
    // LLC still warm: the next access is filtered before the IMC.
    sys.submit({0, CpuOp::Load, r.base, kLineSize});
    sys.advanceEpoch();
    EXPECT_EQ(sys.counters().llcReads, 0u);
}

TEST(MemorySystem, TraceRecordsBandwidthChannels)
{
    SystemConfig cfg = smallConfig(MemoryMode::TwoLm);
    MemorySystem sys(cfg);
    Region r = sys.allocate(4 * kMiB, "arr");
    for (Addr a = 0; a < r.size; a += kLineSize)
        sys.submit({0, CpuOp::Load, r.base + a, kLineSize});
    sys.quiesce();
    const TimeSeries &ts = sys.trace();
    EXPECT_FALSE(ts.channel("dram_read_bw").empty());
    EXPECT_FALSE(ts.channel("nvram_read_bw").empty());
    EXPECT_GT(ts.mean("nvram_read_bw"), 0.0);
}

TEST(MemorySystem, ZeroThreadCountRejected)
{
    MemorySystem sys(smallConfig(MemoryMode::TwoLm));
    EXPECT_DEATH(sys.setActiveThreads(0), "positive");
}

TEST(MemorySystemAlloc, OneLmStraddlesDramBoundary)
{
    // NUMA-preferred first-touch: a region larger than the remaining
    // DRAM fills DRAM and spills contiguously into NVRAM.
    SystemConfig cfg = smallConfig(MemoryMode::OneLm);
    MemorySystem sys(cfg);
    Bytes dram_total = cfg.dramTotal();
    Region head = sys.allocate(dram_total / 2, "head");
    EXPECT_EQ(head.pool, MemPool::Dram);
    Region big = sys.allocate(dram_total, "big");  // cannot fit in DRAM
    EXPECT_EQ(big.base, head.base + head.size);
    // The front of the region is DRAM-backed, the tail NVRAM-backed.
    EXPECT_EQ(sys.poolOf(big.base), MemPool::Dram);
    EXPECT_EQ(sys.poolOf(big.base + big.size - kLineSize),
              MemPool::Nvram);
    // Later allocations continue in NVRAM.
    Region tail = sys.allocate(kMiB, "tail");
    EXPECT_EQ(tail.pool, MemPool::Nvram);
    EXPECT_EQ(sys.poolOf(tail.base), MemPool::Nvram);
}

TEST(MemorySystemAlloc, NoStraddleAfterExplicitNvramUse)
{
    // Once the NVRAM pool brk has moved, contiguous straddling is
    // impossible; oversized regions fall back to pure NVRAM.
    SystemConfig cfg = smallConfig(MemoryMode::OneLm);
    MemorySystem sys(cfg);
    sys.allocateIn(MemPool::Nvram, kMiB, "early_nvram");
    Region big = sys.allocate(cfg.dramTotal() * 2, "big");
    EXPECT_EQ(sys.poolOf(big.base), MemPool::Nvram);
}

TEST(MemorySystemPaging, IdentityWithoutScatter)
{
    SystemConfig cfg = smallConfig(MemoryMode::TwoLm);
    MemorySystem sys(cfg);
    EXPECT_EQ(sys.translate(0x12345), 0x12345u);
}

TEST(MemorySystemPaging, ScatterIsAPageGranularBijection)
{
    SystemConfig cfg = smallConfig(MemoryMode::TwoLm);
    cfg.scatterPages = true;
    cfg.pageBytes = 16 * kMiB;  // scaled: 4 KiB
    MemorySystem sys(cfg);
    Bytes page = cfg.scaledPageBytes();

    std::set<Addr> frames;
    bool any_moved = false;
    for (Addr vp = 0; vp < 512; ++vp) {
        Addr va = vp * page + 128;
        Addr pa = sys.translate(va);
        // Offset within the page is preserved.
        EXPECT_EQ(pa % page, va % page);
        // Stable on re-translation.
        EXPECT_EQ(sys.translate(va), pa);
        // No two virtual pages share a frame.
        EXPECT_TRUE(frames.insert(pa / page).second);
        any_moved |= pa / page != vp;
    }
    EXPECT_TRUE(any_moved);
}

TEST(MemorySystemPaging, ScatterPreservesPools)
{
    SystemConfig cfg = smallConfig(MemoryMode::OneLm);
    cfg.scatterPages = true;
    MemorySystem sys(cfg);
    Region d = sys.allocateIn(MemPool::Dram, 4 * kMiB, "d");
    Region n = sys.allocateIn(MemPool::Nvram, 4 * kMiB, "n");
    Bytes page = cfg.scaledPageBytes();
    for (Addr off = 0; off < 4 * kMiB; off += page) {
        EXPECT_EQ(sys.poolOf(sys.translate(d.base + off)),
                  MemPool::Dram);
        EXPECT_EQ(sys.poolOf(sys.translate(n.base + off)),
                  MemPool::Nvram);
    }
}

TEST(MemorySystemPaging, ScatterCreatesCacheConflicts)
{
    // A contiguous working set at ~90% of the cache is conflict-free
    // with identity mapping but suffers conflicts once physically
    // scattered — the paper's "inflexible direct-mapped cache".
    auto missRate = [&](bool scatter) {
        SystemConfig cfg = smallConfig(MemoryMode::TwoLm);
        cfg.scatterPages = scatter;
        MemorySystem sys(cfg);
        Region arr =
            sys.allocate(cfg.dramTotal() * 9 / 10, "ws");
        // Two passes: the second measures steady-state conflicts.
        for (int pass = 0; pass < 2; ++pass) {
            if (pass == 1)
                sys.resetCounters();
            for (Addr a = 0; a < arr.size; a += kLineSize)
                sys.touchLine(0, CpuOp::Load, arr.base + a);
        }
        sys.quiesce();
        PerfCounters c = sys.counters();
        return static_cast<double>(c.tagMissClean + c.tagMissDirty) /
               static_cast<double>(c.demand());
    };
    EXPECT_LT(missRate(false), 0.01);
    EXPECT_GT(missRate(true), 0.15);
}

TEST(MemorySystemPaging, DeterministicUnderSeed)
{
    SystemConfig cfg = smallConfig(MemoryMode::TwoLm);
    cfg.scatterPages = true;
    MemorySystem a(cfg), b(cfg);
    for (Addr va = 0; va < 64 * cfg.scaledPageBytes();
         va += cfg.scaledPageBytes())
        EXPECT_EQ(a.translate(va), b.translate(va));
    cfg.pageSeed = 99;
    MemorySystem c(cfg);
    bool differs = false;
    for (Addr va = 0; va < 64 * cfg.scaledPageBytes();
         va += cfg.scaledPageBytes())
        differs |= a.translate(va) != c.translate(va);
    EXPECT_TRUE(differs);
}
