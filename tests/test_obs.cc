/**
 * @file
 * Observability-layer tests: histogram bucket boundaries/overflow/
 * merge, Prometheus name/label handling, registry dump round-trips,
 * and the end-to-end property the layer exists for — a dirty-miss 2LM
 * workload showing its 4-5 device accesses per store as histogram
 * mass (Table I as a distribution).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>

#include "kernels/kernels.hh"
#include "obs/histogram.hh"
#include "obs/json.hh"
#include "obs/observer.hh"
#include "obs/perfetto.hh"
#include "obs/prometheus.hh"
#include "obs/session.hh"
#include "obs/stats.hh"

using namespace nvsim;

// --------------------------------------------------------------------
// Log2Histogram

TEST(Histogram, PlainLog2Boundaries)
{
    obs::Log2Histogram h(8, 2);
    // Buckets: 0, 1, [2,4), [4,8), [8,16), [16,32), [32,64), overflow.
    EXPECT_EQ(h.bucketFor(0), 0u);
    EXPECT_EQ(h.bucketFor(1), 1u);
    EXPECT_EQ(h.bucketFor(2), 2u);
    EXPECT_EQ(h.bucketFor(3), 2u);
    EXPECT_EQ(h.bucketFor(4), 3u);
    EXPECT_EQ(h.bucketFor(7), 3u);
    EXPECT_EQ(h.bucketFor(8), 4u);
    EXPECT_EQ(h.bucketFor(63), 6u);
    EXPECT_EQ(h.bucketFor(64), 7u);  // overflow bucket

    EXPECT_EQ(h.bucketLow(2), 2u);
    EXPECT_EQ(h.bucketHigh(2), 4u);
    EXPECT_EQ(h.bucketLow(6), 32u);
    EXPECT_EQ(h.bucketHigh(6), 64u);
    EXPECT_EQ(h.bucketHigh(7), UINT64_MAX);
}

TEST(Histogram, LinearRegionKeepsSmallValuesExact)
{
    // linear=16: values 0..15 land in their own bucket — the layout
    // used for device-access counts, where 4 vs 5 matters (Table I).
    obs::Log2Histogram h(20, 16);
    for (std::uint64_t v = 0; v < 16; ++v)
        EXPECT_EQ(h.bucketFor(v), v) << v;
    EXPECT_EQ(h.bucketFor(16), 16u);
    EXPECT_EQ(h.bucketFor(31), 16u);  // [16,32)
    EXPECT_EQ(h.bucketFor(32), 17u);  // [32,64)
    EXPECT_EQ(h.bucketLow(16), 16u);
    EXPECT_EQ(h.bucketHigh(16), 32u);
}

TEST(Histogram, OverflowBucketIsClamped)
{
    obs::Log2Histogram h(6, 2);
    h.sample(UINT64_MAX);
    h.sample(1u << 30);
    EXPECT_EQ(h.bucketCount(5), 2u);
    EXPECT_EQ(h.bucketHigh(5), UINT64_MAX);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.max(), UINT64_MAX);
}

TEST(Histogram, SampleTracksMoments)
{
    obs::Log2Histogram h(16, 2);
    h.sample(3);
    h.sample(5, 2);  // weighted sample
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 13u);
    EXPECT_EQ(h.min(), 3u);
    EXPECT_EQ(h.max(), 5u);
    EXPECT_DOUBLE_EQ(h.mean(), 13.0 / 3.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

TEST(Histogram, MergeAddsBucketwise)
{
    obs::Log2Histogram a(8, 2), b(8, 2);
    a.sample(1);
    a.sample(100);
    b.sample(1, 3);
    b.sample(2);
    a.merge(b);
    EXPECT_EQ(a.count(), 6u);
    EXPECT_EQ(a.bucketCount(1), 4u);
    EXPECT_EQ(a.bucketCount(2), 1u);
    EXPECT_EQ(a.min(), 1u);
    EXPECT_EQ(a.max(), 100u);
}

TEST(Histogram, MergeRejectsLayoutMismatch)
{
    obs::Log2Histogram a(8, 2), b(8, 4);
    EXPECT_DEATH(a.merge(b), "layout");
}

TEST(Histogram, RejectsBadLinearRegion)
{
    EXPECT_DEATH(obs::Log2Histogram(8, 3), "power of two");
    EXPECT_DEATH(obs::Log2Histogram(4, 8), "buckets for a linear");
}

// --------------------------------------------------------------------
// Prometheus formatting

TEST(Prometheus, SanitizesMetricNames)
{
    EXPECT_EQ(obs::promSanitizeName("dram_read"), "dram_read");
    EXPECT_EQ(obs::promSanitizeName("imc0.cache"), "imc0_cache");
    EXPECT_EQ(obs::promSanitizeName("a-b c%d"), "a_b_c_d");
    EXPECT_EQ(obs::promSanitizeName("2lm_hits"), "_2lm_hits");
    EXPECT_EQ(obs::promSanitizeName("ok:colon"), "ok:colon");
}

TEST(Prometheus, EscapesLabelValues)
{
    EXPECT_EQ(obs::promEscapeLabel("plain"), "plain");
    EXPECT_EQ(obs::promEscapeLabel("a\"b"), "a\\\"b");
    EXPECT_EQ(obs::promEscapeLabel("a\\b"), "a\\\\b");
    EXPECT_EQ(obs::promEscapeLabel("a\nb"), "a\\nb");
}

TEST(Prometheus, WritesScalarsFormulasAndHistograms)
{
    obs::Registry reg;
    obs::Group &g = reg.root().child("imc0");
    g.label("channel", "0");
    g.scalar("reads", "read count").add(7);
    g.formula("rate", "a live value", [] { return 2.5; });
    obs::Log2Histogram &h = g.histogram("lat", "latency", 8, 2);
    h.sample(1, 2);
    h.sample(5);

    std::ostringstream os;
    obs::writePrometheus(reg, os, "nvsim", "run=\"r1\"");
    std::string text = os.str();

    // Scalars are counters and carry the conventional _total suffix.
    EXPECT_NE(text.find("# TYPE nvsim_imc0_reads_total counter"),
              std::string::npos);
    // Extra (session-level) labels render first, then group labels.
    EXPECT_NE(
        text.find("nvsim_imc0_reads_total{run=\"r1\",channel=\"0\"} 7"),
        std::string::npos);
    EXPECT_NE(text.find("# TYPE nvsim_imc0_rate gauge"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE nvsim_imc0_lat histogram"),
              std::string::npos);
    // Cumulative buckets: le="1" covers values <= 1 (2 samples); the
    // +Inf bucket equals the total count.
    EXPECT_NE(text.find("le=\"1\"} 2"), std::string::npos);
    EXPECT_NE(text.find("le=\"+Inf\"} 3"), std::string::npos);
    EXPECT_NE(text.find("nvsim_imc0_lat_sum"), std::string::npos);
    EXPECT_NE(text.find("nvsim_imc0_lat_count"), std::string::npos);
}

// --------------------------------------------------------------------
// Registry / JSON

TEST(StatsRegistry, DuplicateRegistrationPanics)
{
    obs::Registry reg;
    reg.root().scalar("x", "a");
    EXPECT_DEATH(reg.root().scalar("x", "again"), "registered twice");
}

TEST(StatsRegistry, DumpJsonIsWellFormedAndNested)
{
    obs::Registry reg;
    obs::Group &sys = reg.root().child("sys");
    sys.scalar("events", "event count").add(3);
    sys.formula("ratio", "live", [] { return 0.5; });
    obs::Log2Histogram &h = sys.histogram("acc", "accesses", 20, 16);
    h.sample(5, 10);

    std::ostringstream os;
    reg.dumpJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"sys\""), std::string::npos);
    EXPECT_NE(json.find("\"events\":3"), std::string::npos);
    EXPECT_NE(json.find("\"ratio\":0.5"), std::string::npos);
    // Histogram serialization keeps exact bucket bounds.
    EXPECT_NE(json.find("\"lo\":5"), std::string::npos);
    EXPECT_NE(json.find("\"count\":10"), std::string::npos);
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
    const obs::Log2Histogram &h = *st->histogram;
    EXPECT_GT(h.count(), 0u);
    EXPECT_GT(h.bucketCount(5), 0u);  // exact bucket: 5 accesses
    EXPECT_EQ(h.bucketCount(5), h.count());
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
    std::string prom = obs.statsProm();
    EXPECT_NE(prom.find("run=\"4b\""), std::string::npos);
    EXPECT_NE(prom.find("nvsim_requests_miss_dirty_device_accesses"),
              std::string::npos);
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
    const obs::Log2Histogram &h = *st->histogram;
    EXPECT_GT(h.count(), 0u);
    EXPECT_EQ(h.bucketCount(3), h.count());
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
    opts.statsPromPath = dir + "obs_stats.prom";
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
    std::string prom = slurp(opts.statsPromPath);
    EXPECT_NE(prom.find("run=\"run_a\""), std::string::npos);
    std::string trace = slurp(opts.perfettoPath);
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("run_a"), std::string::npos);
}
