/**
 * @file
 * Equivalence tests for the batched access engine: for every mode, op,
 * pattern and granularity, MemorySystem::submit must leave the
 * machine in a state bit-identical to the reference per-line loop —
 * every uncore counter, LLC statistic, device buffer effect (via write
 * amplification) and the accumulated simulated time (an exact
 * floating-point comparison, since the batched path is required to add
 * per-line latencies in the reference order).
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "kernels/kernels.hh"

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
runGrid(MemoryMode mode)
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

                MemorySystem batched(config(mode));
                MemorySystem per_line(config(mode));
                ASSERT_TRUE(batched.batchedAccess());
                per_line.setBatchedAccess(false);
                for (MemorySystem *sys : {&batched, &per_line}) {
                    Region r = sys->allocateIn(MemPool::Nvram, 4 * kMiB,
                                               "arr");
                    runKernel(*sys, r, k);
                }
                expectIdentical(batched, per_line);
            }
        }
    }
}

} // namespace

TEST(AccessRangeEquivalence, OneLmKernelGrid)
{
    runGrid(MemoryMode::OneLm);
}

TEST(AccessRangeEquivalence, TwoLmKernelGrid)
{
    runGrid(MemoryMode::TwoLm);
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

TEST(AccessRangeEquivalence, NonPowerOfTwoChannelGrid)
{
    // The cached interleave mapping has a fast shift/mask path for
    // power-of-two granules and a general division path; both engines
    // route through the same map. A 5-channel socket with a non-pow2
    // granule after offlining exercises the general path end to end:
    // batched and per-line engines must still agree exactly.
    for (MemoryMode mode : {MemoryMode::OneLm, MemoryMode::TwoLm}) {
        SCOPED_TRACE(memoryModeName(mode));
        SystemConfig cfg = config(mode);
        cfg.channelsPerSocket = 5;
        MemorySystem batched(cfg);
        MemorySystem per_line(cfg);
        per_line.setBatchedAccess(false);
        KernelConfig k;
        k.op = KernelOp::ReadModifyWrite;
        k.threads = 3;
        for (MemorySystem *sys : {&batched, &per_line}) {
            Region r = sys->allocateIn(MemPool::Nvram, 6 * kMiB, "arr");
            runKernel(*sys, r, k);
            // Offline a channel mid-run: the map is rebuilt with 4
            // online channels but chunk positions keyed off the
            // original granule, then traffic resumes on both engines.
            sys->offlineChannel(2);
            sys->submit({0, CpuOp::Load, r.base + 777, 2 * kMiB});
            sys->submit({1, CpuOp::NtStore, r.base + 64, 1 * kMiB});
            sys->quiesce();
        }
        expectIdentical(batched, per_line);
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

/**
 * Mixed demand kinds, LLC re-touches among misses, NT stores and a DMA
 * copy, over epochs small enough that every call crosses boundaries.
 */
RunDigest
driveMixed(MemoryMode mode, bool per_line)
{
    SystemConfig cfg = config(mode);
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
    sys.quiesce();
    return digest(sys);
}

} // namespace

TEST(AccessRangeEquivalence, TwoLmMixedDriveMatchesPerLine)
{
    RunDigest batched = driveMixed(MemoryMode::TwoLm, false);
    EXPECT_FALSE(batched.traceSamples.empty());
    expectIdentical(batched, driveMixed(MemoryMode::TwoLm, true));
}

TEST(AccessRangeEquivalence, OneLmMixedDriveMatchesPerLine)
{
    RunDigest batched = driveMixed(MemoryMode::OneLm, false);
    EXPECT_FALSE(batched.traceSamples.empty());
    expectIdentical(batched, driveMixed(MemoryMode::OneLm, true));
}
