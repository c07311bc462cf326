/**
 * @file
 * Observability-layer tests: the registry's exact JSON dump, Perfetto
 * export, and the end-to-end property the layer exists for — a
 * dirty-miss 2LM workload showing its 5 device accesses per store as
 * histogram mass (Table I as a distribution). The histogram itself,
 * LatencySketch, is tested in test_telemetry.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "kernels/kernels.hh"
#include "obs/json.hh"
#include "obs/observer.hh"
#include "obs/perfetto.hh"
#include "obs/session.hh"
#include "obs/stats.hh"

using namespace nvsim;

// --------------------------------------------------------------------
// Registry / JSON

TEST(StatsRegistry, DuplicateRegistrationPanics)
{
    obs::Registry reg;
    reg.root().scalar("x");
    EXPECT_DEATH(reg.root().scalar("x"), "registered twice");
}

TEST(StatsRegistry, DumpJsonIsWellFormedAndNested)
{
    obs::Registry reg;
    obs::Group &sys = reg.root().child("sys");
    sys.scalar("events").add(3);
    sys.formula("ratio", [] { return 0.5; });
    obs::LatencySketch &h = sys.histogram("acc");
    for (std::uint64_t v = 1; v <= 5; ++v)
        h.add(v);

    std::ostringstream os;
    reg.dumpJson(os);
    // The histogram object is the contract the CI obs smoke reads:
    // count/sum/min/max/mean, then one exact {lo, hi, count} bucket
    // per sampled value below 64, zero buckets omitted.
    EXPECT_EQ(os.str(),
              "{\"sys\":{\"events\":3,\"ratio\":0.5,"
              "\"acc\":{\"count\":5,\"sum\":15,\"min\":1,\"max\":5,"
              "\"mean\":3,\"buckets\":["
              "{\"lo\":1,\"hi\":2,\"count\":1},"
              "{\"lo\":2,\"hi\":3,\"count\":1},"
              "{\"lo\":3,\"hi\":4,\"count\":1},"
              "{\"lo\":4,\"hi\":5,\"count\":1},"
              "{\"lo\":5,\"hi\":6,\"count\":1}]}}}\n");
}

TEST(Json, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(obs::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(obs::jsonEscape(std::string(1, '\x01')), "\\u0001");
}

// --------------------------------------------------------------------
// Perfetto export

TEST(Perfetto, EmitsSpansAndCounters)
{
    obs::PerfettoTracer t;
    t.nameTrack(obs::Track::Kernels, "kernels");
    t.span(obs::Track::Kernels, "k0", 1e-6, 3e-6,
           {{"bytes", 128.0}});
    t.counter("bw", 3e-6, 42.0);
    EXPECT_DOUBLE_EQ(t.horizon(), 3e-6);

    std::ostringstream os;
    t.writeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":2"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(Perfetto, TimeBaseShiftsEvents)
{
    obs::PerfettoTracer t;
    t.setTimeBase(1.0);
    t.span(obs::Track::Epochs, "e", 0.0, 0.5);
    EXPECT_DOUBLE_EQ(t.horizon(), 1.5);
    std::ostringstream os;
    t.writeJson(os);
    // 1.0 s base + 0.0 s start = 1e6 us.
    EXPECT_NE(os.str().find("\"ts\":1000000"), std::string::npos);
}

// --------------------------------------------------------------------
// End to end: the 2LM dirty-miss workload of Figure 4b

namespace
{

SystemConfig
smallCfg()
{
    SystemConfig c;
    c.mode = MemoryMode::TwoLm;
    c.scale = 8192;
    c.epochBytes = 64 * kKiB;
    return c;
}

} // namespace

TEST(ObserverEndToEnd, DirtyMissWorkloadShowsTableOneAccessCounts)
{
    MemorySystem sys(smallCfg());
    Region arr = sys.allocate(sys.config().dramTotal() * 2, "arr");
    primeDirty(sys, arr, 4);
    sys.resetCounters();

    obs::Observer obs("4b");
    sys.attachObserver(&obs);

    KernelConfig k;
    k.op = KernelOp::WriteOnly;
    k.nontemporal = true;
    k.threads = 4;
    KernelResult r = runKernel(sys, arr, k);
    EXPECT_GT(r.counters.tagMissDirty, 0u);

    // Table I: a dirty NT-store miss costs 5 device accesses (tag
    // read, NVRAM victim writeback, NVRAM fetch, DRAM insert, demand
    // DRAM write). The miss_dirty access histogram must put all its
    // mass exactly there — the acceptance criterion of this layer.
    const obs::Stat *st = obs.root()
                              .child("requests")
                              .child("miss_dirty")
                              .find("device_accesses");
    ASSERT_NE(st, nullptr);
    ASSERT_NE(st->histogram, nullptr);
    const obs::LatencySketch &h = *st->histogram;
    EXPECT_GT(h.count(), 0u);
    // One exact bucket holds every sample: 5 accesses.
    using Buckets = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
    EXPECT_EQ(h.sparse(), (Buckets{{5, h.count()}}));
    EXPECT_EQ(h.min(), 5u);
    EXPECT_EQ(h.max(), 5u);

    // The latency histogram saw every demand store too.
    const obs::Stat *lat = obs.root()
                               .child("requests")
                               .child("miss_dirty")
                               .find("latency_ns");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->histogram->count(), h.count());

    // Registered channel stats agree with the uncore counters.
    sys.detachObserver();
    std::string json = obs.statsJson();
    EXPECT_NE(json.find("\"imc0\""), std::string::npos);
    EXPECT_NE(json.find("\"tag_miss_dirty\""), std::string::npos);
}

TEST(ObserverEndToEnd, CleanReadMissesCostThreeAccesses)
{
    MemorySystem sys(smallCfg());
    Region arr = sys.allocate(sys.config().dramTotal() * 2, "arr");
    primeClean(sys, arr, 4);
    sys.resetCounters();

    obs::Observer obs;
    sys.attachObserver(&obs);

    KernelConfig k;
    k.op = KernelOp::ReadOnly;
    k.threads = 4;
    runKernel(sys, arr, k);

    // Table I row 2: clean read miss = tag read + NVRAM fetch + DRAM
    // insert = 3 device accesses.
    const obs::Stat *st = obs.root()
                              .child("requests")
                              .child("miss_clean")
                              .find("device_accesses");
    ASSERT_NE(st, nullptr);
    const obs::LatencySketch &h = *st->histogram;
    EXPECT_GT(h.count(), 0u);
    using Buckets = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
    EXPECT_EQ(h.sparse(), (Buckets{{3, h.count()}}));
}

TEST(ObserverEndToEnd, ResetCountersDropsWarmupSamples)
{
    MemorySystem sys(smallCfg());
    Region arr = sys.allocate(1 * kMiB, "arr");

    obs::Observer obs;
    sys.attachObserver(&obs);

    sys.submit({0, CpuOp::Load, arr.base, 64 * kLineSize});
    sys.quiesce();
    const obs::Stat *st = obs.root()
                              .child("requests")
                              .child("miss_clean")
                              .find("device_accesses");
    ASSERT_NE(st, nullptr);
    EXPECT_GT(st->histogram->count(), 0u);

    sys.resetCounters();
    EXPECT_EQ(st->histogram->count(), 0u);
}

TEST(ObserverEndToEnd, SessionWritesValidatableFiles)
{
    std::string dir = ::testing::TempDir();
    obs::SessionOptions opts;
    opts.statsJsonPath = dir + "obs_stats.json";
    opts.perfettoPath = dir + "obs_trace.json";
    {
        obs::Session session(opts);
        for (const char *label : {"run_a", "run_b"}) {
            MemorySystem sys(smallCfg());
            Region arr =
                sys.allocate(sys.config().dramTotal() * 2, "arr");
            if (obs::Observer *o = session.beginRun(label))
                sys.attachObserver(o);
            KernelConfig k;
            k.op = KernelOp::WriteOnly;
            k.nontemporal = true;
            k.threads = 2;
            runKernel(sys, arr, k);
            session.endRun();
        }
        session.write();
    }

    auto slurp = [](const std::string &path) {
        std::ifstream in(path);
        EXPECT_TRUE(in.good()) << path;
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };
    std::string stats = slurp(opts.statsJsonPath);
    EXPECT_NE(stats.find("\"label\":\"run_a\""), std::string::npos);
    EXPECT_NE(stats.find("\"label\":\"run_b\""), std::string::npos);
    std::string trace = slurp(opts.perfettoPath);
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("run_a"), std::string::npos);
}
