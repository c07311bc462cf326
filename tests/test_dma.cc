/**
 * @file
 * Tests for the DMA copy-engine extension (Section VII-B's future
 * direction): traffic accounting, overlap with CPU work, engine
 * bandwidth limits and coherence with the LLC.
 */

#include <gtest/gtest.h>

#include "dnn/autotm.hh"
#include "dnn/networks.hh"
#include "sys/memsys.hh"

using namespace nvsim;

namespace
{

SystemConfig
cfgWith(double engine_bw, unsigned engines = 4)
{
    SystemConfig cfg;
    cfg.mode = MemoryMode::OneLm;
    cfg.scale = 4096;
    cfg.epochBytes = 64 * kKiB;
    cfg.dmaEngines = engines;
    cfg.dmaEngineBandwidth = engine_bw;
    return cfg;
}

} // namespace

TEST(DmaCopy, GeneratesReadAndWriteTraffic)
{
    MemorySystem sys(cfgWith(8e9));
    Region src = sys.allocateIn(MemPool::Nvram, kMiB, "src");
    Region dst = sys.allocateIn(MemPool::Dram, kMiB, "dst");
    sys.dmaCopy(dst.base, src.base, kMiB);
    sys.quiesce();
    PerfCounters c = sys.counters();
    EXPECT_EQ(c.nvramRead, kMiB / kLineSize);
    EXPECT_EQ(c.dramWrite, kMiB / kLineSize);
}

TEST(DmaCopy, InvalidatesDestinationInLlc)
{
    MemorySystem sys(cfgWith(8e9));
    Region dst = sys.allocateIn(MemPool::Dram, kMiB, "dst");
    Region src = sys.allocateIn(MemPool::Nvram, kMiB, "src");
    sys.submit({0, CpuOp::Load, dst.base, kLineSize});  // cache dst line
    ASSERT_TRUE(sys.llc().resident(dst.base));
    sys.dmaCopy(dst.base, src.base, kLineSize);
    EXPECT_FALSE(sys.llc().resident(dst.base));
}

TEST(DmaCopy, EngineBandwidthBoundsTime)
{
    // With absurdly slow engines the copy time is engine-bound and
    // linear in size.
    MemorySystem sys(cfgWith(1e6, 1));
    Region src = sys.allocateIn(MemPool::Nvram, kMiB, "src");
    Region dst = sys.allocateIn(MemPool::Dram, kMiB, "dst");
    double t0 = sys.now();
    sys.dmaCopy(dst.base, src.base, kMiB);
    sys.quiesce();
    double expected = 2.0 * kMiB / 1e6;  // read + write bytes
    EXPECT_NEAR(sys.now() - t0, expected, expected * 0.05);
}

TEST(DmaCopy, OverlapsWithComputeUnlikeCpuMoves)
{
    // A copy plus an equal-length compute phase: DMA overlaps (total
    // max(copy, compute)), CPU streaming serializes into the demand
    // model.
    Bytes n = 4 * kMiB;
    double compute = 0.01;

    auto run = [&](bool dma) {
        MemorySystem sys(cfgWith(20e9, 4));
        Region src = sys.allocateIn(MemPool::Nvram, n, "src");
        Region dst = sys.allocateIn(MemPool::Dram, n, "dst");
        sys.setActiveThreads(4);
        if (dma) {
            sys.dmaCopy(dst.base, src.base, n);
            sys.addComputeTime(compute);
        } else {
            for (Addr off = 0; off < n; off += kLineSize) {
                sys.touchLine(0, CpuOp::Load, src.base + off);
                sys.touchLine(0, CpuOp::NtStore, dst.base + off);
            }
            sys.addComputeTime(compute);
        }
        sys.quiesce();
        return sys.now();
    };

    double t_dma = run(true);
    double t_cpu = run(false);
    // DMA run is dominated by the compute floor.
    EXPECT_NEAR(t_dma, compute, compute * 0.2);
    EXPECT_GT(t_cpu, t_dma);
}

TEST(DmaAutoTm, DmaMovesSpeedUpSpillHeavyTraining)
{
    using namespace nvsim::dnn;
    ComputeGraph g = buildDenseNet264(1536);

    auto run = [&](bool use_dma, double engine_bw) {
        SystemConfig cfg;
        cfg.mode = MemoryMode::OneLm;
        cfg.scale = 1u << 20;
        cfg.epochBytes = 16 * kKiB;
        cfg.dmaEngines = 4;
        cfg.dmaEngineBandwidth = engine_bw;
        MemorySystem sys(cfg);
        AutoTmConfig acfg;
        acfg.exec.threads = 8;
        acfg.exec.chunkBytes = 16 * kKiB;
        acfg.useDma = use_dma;
        AutoTmExecutor ex(sys, g, acfg);
        IterationResult r = ex.runIteration();
        EXPECT_GT(ex.stats().movesToNvram, 0u)
            << "test requires a spill-heavy run";
        return r.seconds;
    };

    double cpu_moves = run(false, 8e9);
    double dma_fast = run(true, 20e9);
    // High-bandwidth engines overlap movement with compute: faster.
    EXPECT_LT(dma_fast, cpu_moves);
}
