/**
 * @file
 * Telemetry-engine tests: the latency sketch's documented error bound
 * and exact merge algebra, window rollover with fractional-epoch
 * carry (counter conservation), ring eviction accounting, SLO
 * parsing/evaluation, batched-vs-per-line collection equivalence, and
 * the byte-identity of the exported files under any run registration
 * order (the --jobs=N guarantee).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "kernels/kernels.hh"
#include "obs/session.hh"
#include "obs/telemetry/sketch.hh"
#include "obs/telemetry/slo.hh"
#include "obs/telemetry/telemetry.hh"
#include "sys/memsys.hh"

using namespace nvsim;
using obs::LatencySketch;

namespace
{

/** Deterministic 64-bit LCG (MMIX constants). */
std::uint64_t
lcg(std::uint64_t &state)
{
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state;
}

/** Exact nearest-rank percentile, mirroring LatencySketch::quantile. */
std::uint64_t
exactQuantile(std::vector<std::uint64_t> sorted, double q)
{
    std::sort(sorted.begin(), sorted.end());
    std::uint64_t n = sorted.size();
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    rank = std::max<std::uint64_t>(1, std::min(rank, n));
    return sorted[rank - 1];
}

} // namespace

// --------------------------------------------------------------------
// LatencySketch

TEST(Sketch, SmallValuesAreExact)
{
    // Values below 64 each get their own bucket: quantiles are exact.
    LatencySketch s;
    for (std::uint64_t v = 0; v < 64; ++v)
        s.add(v);
    EXPECT_EQ(s.count(), 64u);
    EXPECT_EQ(s.min(), 0u);
    EXPECT_EQ(s.max(), 63u);
    for (std::uint64_t v = 0; v < 64; ++v) {
        double q = static_cast<double>(v + 1) / 64.0;
        EXPECT_EQ(s.quantile(q), v) << "q=" << q;
    }
}

TEST(Sketch, BucketGeometry)
{
    // One exact bucket per value up to 63...
    EXPECT_EQ(LatencySketch::bucketOf(0), 0u);
    EXPECT_EQ(LatencySketch::bucketOf(63), 63u);
    // ...then 64 linear sub-buckets per octave: [64,128) maps to
    // buckets 64..127, each 1 wide; [128,256) to 128..191, 2 wide.
    EXPECT_EQ(LatencySketch::bucketOf(64), 64u);
    EXPECT_EQ(LatencySketch::bucketOf(127), 127u);
    EXPECT_EQ(LatencySketch::bucketOf(128), 128u);
    EXPECT_EQ(LatencySketch::bucketOf(129), 128u);
    EXPECT_EQ(LatencySketch::bucketOf(130), 129u);
    for (unsigned b = 0; b < 300; ++b) {
        std::uint64_t lo = LatencySketch::bucketLow(b);
        std::uint64_t hi = LatencySketch::bucketHigh(b);
        ASSERT_LT(lo, hi);
        EXPECT_EQ(LatencySketch::bucketOf(lo), b);
        EXPECT_EQ(LatencySketch::bucketOf(hi - 1), b);
        // Bucket width <= lo/64 above the exact region: the <= 2%
        // error bound's geometric origin.
        if (lo >= 64) {
            EXPECT_LE(hi - lo, lo / 64) << b;
        }
    }
}

TEST(Sketch, QuantileErrorWithinDocumentedBound)
{
    // Latency-shaped values spanning 5 orders of magnitude.
    std::uint64_t state = 42;
    std::vector<std::uint64_t> values;
    LatencySketch s;
    for (int i = 0; i < 20000; ++i) {
        // Log-uniform in [64, ~2^24): exercise many octaves.
        double u = static_cast<double>(lcg(state) >> 11) /
                   9007199254740992.0;  // [0,1)
        std::uint64_t v = static_cast<std::uint64_t>(
            std::pow(2.0, 6.0 + 18.0 * u));
        values.push_back(v);
        s.add(v);
    }
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
        double exact =
            static_cast<double>(exactQuantile(values, q));
        double got = static_cast<double>(s.quantile(q));
        EXPECT_LE(std::abs(got - exact),
                  LatencySketch::kRelativeErrorBound * exact)
            << "q=" << q << " exact=" << exact << " got=" << got;
    }
    // Extremes are tracked exactly.
    EXPECT_EQ(s.quantile(0),
              *std::min_element(values.begin(), values.end()));
    EXPECT_EQ(s.quantile(1),
              *std::max_element(values.begin(), values.end()));
}

TEST(Sketch, MergeIsExactAndAssociative)
{
    std::uint64_t state = 7;
    LatencySketch whole, a, b, c;
    for (int i = 0; i < 3000; ++i) {
        std::uint64_t v = lcg(state) % 1000000;
        whole.add(v);
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(v);
    }
    // (a + b) + c
    LatencySketch ab = a;
    ab.merge(b);
    LatencySketch abc = ab;
    abc.merge(c);
    // a + (b + c)
    LatencySketch bc = b;
    bc.merge(c);
    LatencySketch acb = a;
    acb.merge(bc);
    EXPECT_EQ(abc, acb);
    EXPECT_EQ(abc, whole);
    EXPECT_EQ(abc.count(), whole.count());
    EXPECT_EQ(abc.sum(), whole.sum());
    EXPECT_EQ(abc.min(), whole.min());
    EXPECT_EQ(abc.max(), whole.max());
}

TEST(Sketch, BulkAddEqualsRepeatedAdd)
{
    // The batched engine's noteLatency(lat, n) must be
    // bucket-identical to n per-line calls.
    LatencySketch bulk, repeated;
    bulk.add(100, 1000);
    bulk.add(77777, 3);
    for (int i = 0; i < 1000; ++i)
        repeated.add(100);
    for (int i = 0; i < 3; ++i)
        repeated.add(77777);
    EXPECT_EQ(bulk, repeated);
}

// --------------------------------------------------------------------
// TelemetryRun: windows, fractional carry, conservation

namespace
{

obs::TelemetryOptions
telOpts(double window_s = 1e-3, std::size_t ring = 0)
{
    obs::TelemetryOptions o;
    o.csvPath = "unused.csv";  // any() must hold for a live run
    o.windowSeconds = window_s;
    o.ringWindows = ring;
    return o;
}

PerfCounters
countersAt(std::uint64_t dram_read, std::uint64_t nvram_write)
{
    PerfCounters c;
    c.dramRead = dram_read;
    c.nvramWrite = nvram_write;
    return c;
}

} // namespace

TEST(TelemetryRun, FractionalEpochCarryConservesCounters)
{
    // 1 ms windows; one epoch spanning [0.4 ms, 2.2 ms) — 1/3 of it in
    // window 0, 5/9 in window 1, 1/9 in window 2.
    obs::TelemetryRun run("r", telOpts(1e-3));
    PerfCounters zero;
    run.prime(&zero, 1);
    PerfCounters after = countersAt(900, 90);
    run.onEpoch(0.4e-3, 2.2e-3, 1800, &after, 1);

    ASSERT_EQ(run.windows().size(), 3u);
    const auto &w = run.windows();
    std::size_t ridx =
        static_cast<std::size_t>(PerfField::dramRead);
    std::size_t widx =
        static_cast<std::size_t>(PerfField::nvramWrite);
    // Window shares of the 1.8 ms epoch: 0.6, 1.0, 0.2 ms.
    EXPECT_NEAR(w[0].all[ridx], 900.0 / 3.0, 1e-6);
    EXPECT_NEAR(w[1].all[ridx], 900.0 * 5.0 / 9.0, 1e-6);
    EXPECT_NEAR(w[2].all[ridx], 900.0 / 9.0, 1e-6);
    EXPECT_NEAR(w[0].activeS, 0.6e-3, 1e-12);
    EXPECT_NEAR(w[1].activeS, 1.0e-3, 1e-12);
    EXPECT_NEAR(w[2].activeS, 0.2e-3, 1e-12);
    // Conservation: windowed fractions sum to the exact delta.
    double rsum = 0, wsum = 0, asum = 0, esum = 0, bsum = 0;
    for (const auto &win : w) {
        rsum += win.all[ridx];
        wsum += win.all[widx];
        asum += win.activeS;
        esum += win.epochs;
        bsum += win.demandBytes;
    }
    EXPECT_NEAR(rsum, 900.0, 1e-6);
    EXPECT_NEAR(wsum, 90.0, 1e-6);
    EXPECT_NEAR(asum, 1.8e-3, 1e-12);
    EXPECT_NEAR(esum, 1.0, 1e-9);
    EXPECT_NEAR(bsum, 1800.0, 1e-6);
    // Exact totals stay integral.
    EXPECT_EQ(run.totals()[ridx], 900u);
    EXPECT_EQ(run.totals()[widx], 90u);
}

TEST(TelemetryRun, LatenciesCreditToEpochEndWindow)
{
    obs::TelemetryRun run("r", telOpts(1e-3));
    PerfCounters zero;
    run.prime(&zero, 1);
    run.noteLatency(500e-9, 4);
    PerfCounters after = countersAt(4, 0);
    // Epoch straddles windows 0 and 1; ends in window 1.
    run.onEpoch(0.9e-3, 1.1e-3, 256, &after, 1);
    run.finish();
    ASSERT_EQ(run.windows().size(), 2u);
    EXPECT_TRUE(run.windows()[0].sketch.empty());
    EXPECT_EQ(run.windows()[1].sketch.count(), 4u);
    EXPECT_EQ(run.windows()[1].sketch.min(), 500u);
    EXPECT_EQ(run.runSketch().count(), 4u);
}

TEST(TelemetryRun, RingEvictsOldestAndCountsDrops)
{
    obs::TelemetryRun run("r", telOpts(1e-3, 2));
    PerfCounters zero;
    run.prime(&zero, 1);
    for (int e = 0; e < 5; ++e) {
        PerfCounters c = countersAt((e + 1) * 10, 0);
        run.onEpoch(e * 1e-3, (e + 1) * 1e-3 - 1e-7, 64, &c, 1);
    }
    EXPECT_EQ(run.windows().size(), 2u);
    EXPECT_EQ(run.windowsDropped(), 3u);
    EXPECT_EQ(run.windows()[0].index, 3);
    EXPECT_EQ(run.windows()[1].index, 4);
    // Totals are exact even though windows were evicted.
    EXPECT_EQ(
        run.totals()[static_cast<std::size_t>(PerfField::dramRead)],
        50u);
}

TEST(TelemetryRun, CountersResetDropsWarmupWindows)
{
    obs::TelemetryRun run("r", telOpts(1e-3));
    PerfCounters zero;
    run.prime(&zero, 1);
    run.noteLatency(1e-6);
    PerfCounters warm = countersAt(100, 0);
    run.onEpoch(0, 0.5e-3, 64, &warm, 1);
    run.onCountersReset();
    EXPECT_EQ(run.windows().size(), 0u);
    PerfCounters after = countersAt(30, 0);
    run.onEpoch(0, 0.5e-3, 64, &after, 1);
    run.finish();
    ASSERT_EQ(run.windows().size(), 1u);
    // The post-reset delta is 30, not 30 - 100 underflowed.
    EXPECT_EQ(
        run.totals()[static_cast<std::size_t>(PerfField::dramRead)],
        30u);
    EXPECT_TRUE(run.runSketch().empty());
}

TEST(TelemetryRun, WindowMetricNamesAreValidated)
{
    EXPECT_TRUE(obs::TelemetryRun::knownMetric("p99_ns"));
    EXPECT_TRUE(obs::TelemetryRun::knownMetric("eff_gbs"));
    EXPECT_TRUE(obs::TelemetryRun::knownMetric("amplification"));
    EXPECT_TRUE(obs::TelemetryRun::knownMetric("maint_duty"));
    EXPECT_FALSE(obs::TelemetryRun::knownMetric("p42_ns"));
    EXPECT_FALSE(obs::TelemetryRun::knownMetric(""));

    // A percentile does not apply to a request-free window.
    obs::TelemetryWindow w;
    double v = 0;
    EXPECT_FALSE(obs::TelemetryRun::windowMetric(w, "p99_ns", &v));
    w.sketch.add(1000, 10);
    EXPECT_TRUE(obs::TelemetryRun::windowMetric(w, "p99_ns", &v));
    EXPECT_EQ(v, 1000.0);
}

// --------------------------------------------------------------------
// SLO spec

TEST(Slo, ParsesObjectivesAndBudgets)
{
    obs::SloSpec spec =
        obs::SloSpec::parse("p99_ns<1500@95%; amplification <= 3.2");
    ASSERT_EQ(spec.objectives.size(), 2u);
    EXPECT_EQ(spec.objectives[0].metric, "p99_ns");
    EXPECT_EQ(spec.objectives[0].op, obs::SloObjective::Op::Lt);
    EXPECT_EQ(spec.objectives[0].value, 1500.0);
    EXPECT_EQ(spec.objectives[0].budgetPct, 95.0);
    EXPECT_EQ(spec.objectives[1].metric, "amplification");
    EXPECT_EQ(spec.objectives[1].op, obs::SloObjective::Op::Le);
    EXPECT_EQ(spec.objectives[1].budgetPct, 100.0);

    EXPECT_TRUE(spec.objectives[0].holds(1499.0));
    EXPECT_FALSE(spec.objectives[0].holds(1500.0));
    EXPECT_TRUE(spec.objectives[1].holds(3.2));
}

TEST(SloDeathTest, RejectsBadSpecs)
{
    EXPECT_DEATH(obs::SloSpec::parse("p99_ns=1500"), "objective");
    EXPECT_DEATH(obs::SloSpec::parse("bogus_metric<1"), "metric");
    EXPECT_DEATH(obs::SloSpec::parse("anomalies<1"),
                 "unknown SLO metric 'anomalies'");
    EXPECT_DEATH(obs::SloSpec::parse("p99_ns<abc"), "");
    EXPECT_DEATH(obs::SloSpec::parse("p99_ns<1@250%"), "");
}

TEST(Slo, EvaluatesComplianceBudget)
{
    // 10 windows, one violating: p99 < 1500 @ 90% passes, @ 95% fails.
    obs::TelemetryRun run("r", telOpts(1e-3));
    PerfCounters zero;
    run.prime(&zero, 1);
    std::uint64_t cum = 0;
    for (int e = 0; e < 10; ++e) {
        run.noteLatency(e == 4 ? 2e-6 : 1e-6, 8);
        cum += 8;
        PerfCounters c = countersAt(cum, 0);
        run.onEpoch(e * 1e-3, (e + 1) * 1e-3 - 1e-7, 512, &c, 1);
    }
    run.finish();
    ASSERT_EQ(run.windows().size(), 10u);

    obs::SloResult ok = obs::evaluateSlo(
        obs::SloSpec::parse("p99_ns<1500@90%"), run);
    EXPECT_TRUE(ok.pass);
    ASSERT_EQ(ok.objectives.size(), 1u);
    EXPECT_EQ(ok.objectives[0].eligible, 10u);
    EXPECT_EQ(ok.objectives[0].compliant, 9u);

    obs::SloResult bad = obs::evaluateSlo(
        obs::SloSpec::parse("p99_ns<1500@95%"), run);
    EXPECT_FALSE(bad.pass);
    EXPECT_EQ(bad.objectives[0].worstWindow, 4);
    EXPECT_EQ(bad.objectives[0].worstValue, 2000.0);

    std::string report = obs::sloReport("r", bad);
    EXPECT_NE(report.find("SLO report: r"), std::string::npos);
    EXPECT_NE(report.find("FAIL"), std::string::npos);
    EXPECT_EQ(report.find("evicted"), std::string::npos);

    // The same run through a 4-window ring keeps only windows 6-9, all
    // compliant. The evicted head makes the verdict void: the
    // objective fails and the report names the evicted count.
    obs::TelemetryRun ring("r", telOpts(1e-3, 4));
    ring.prime(&zero, 1);
    cum = 0;
    for (int e = 0; e < 10; ++e) {
        ring.noteLatency(e == 4 ? 2e-6 : 1e-6, 8);
        cum += 8;
        PerfCounters c = countersAt(cum, 0);
        ring.onEpoch(e * 1e-3, (e + 1) * 1e-3 - 1e-7, 512, &c, 1);
    }
    ring.finish();
    ASSERT_EQ(ring.windows().size(), 4u);
    ASSERT_EQ(ring.windowsDropped(), 6u);
    obs::SloResult evicted = obs::evaluateSlo(
        obs::SloSpec::parse("p99_ns<1500@90%"), ring);
    EXPECT_FALSE(evicted.pass);
    EXPECT_EQ(evicted.evicted, 6u);
    ASSERT_EQ(evicted.objectives.size(), 1u);
    EXPECT_FALSE(evicted.objectives[0].pass);
    EXPECT_EQ(evicted.objectives[0].compliant, 4u);
    std::string ring_report = obs::sloReport("r", evicted);
    EXPECT_NE(ring_report.find("FAIL p99_ns<1500@90%"), std::string::npos);
    EXPECT_NE(ring_report.find("6 windows evicted"), std::string::npos);
    EXPECT_NE(ring_report.find("overall: FAIL"), std::string::npos);
}

// --------------------------------------------------------------------
// End to end against a MemorySystem

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

KernelResult
runWorkload(MemorySystem &sys, const Region &arr)
{
    KernelConfig k;
    k.op = KernelOp::ReadModifyWrite;
    k.threads = 4;
    return runKernel(sys, arr, k);
}

} // namespace

TEST(TelemetryEndToEnd, TotalsMatchUncoreCountersExactly)
{
    MemorySystem sys(smallCfg());
    Region arr = sys.allocate(sys.config().dramTotal() * 2, "arr");
    primeDirty(sys, arr, 4);
    sys.resetCounters();

    obs::TelemetryRun run("e2e", telOpts(1e-4));
    sys.attachTelemetry(&run);
    runWorkload(sys, arr);
    sys.detachTelemetry();
    run.finish();

    // The run's exact totals equal the per-channel uncore counters
    // summed — nothing lost to windowing.
    std::array<std::uint64_t, obs::TelemetryRun::kFields> expect{};
    for (unsigned c = 0; c < sys.numChannels(); ++c) {
        auto arr64 = sys.channel(c).counters().asArray();
        for (std::size_t f = 0; f < expect.size(); ++f)
            expect[f] += arr64[f];
    }
    EXPECT_EQ(run.totals(), expect);
    EXPECT_GT(run.totals()[static_cast<std::size_t>(
                  PerfField::tagMissDirty)],
              0u);

    // Windowed fractions conserve the totals too.
    std::size_t ridx =
        static_cast<std::size_t>(PerfField::dramRead);
    double windowed = 0;
    for (const auto &w : run.windows())
        windowed += w.all[ridx];
    EXPECT_NEAR(windowed, static_cast<double>(run.totals()[ridx]),
                1e-6 * static_cast<double>(run.totals()[ridx]) + 1e-6);

    // Every demand request fed the latency sketch.
    EXPECT_GT(run.runSketch().count(), 0u);
    EXPECT_GT(run.quantileNs(0.99), run.quantileNs(0.0));
}

TEST(TelemetryEndToEnd, CollectionDoesNotPerturbTheSimulation)
{
    // Same workload with and without telemetry: identical counters
    // and identical simulated time (flags-off neutrality's stronger
    // sibling — even flags-ON changes nothing simulated).
    auto counters = [](bool with_tel) {
        MemorySystem sys(smallCfg());
        Region arr =
            sys.allocate(sys.config().dramTotal() * 2, "arr");
        primeDirty(sys, arr, 4);
        sys.resetCounters();
        obs::TelemetryRun run("n", telOpts(1e-4));
        if (with_tel)
            sys.attachTelemetry(&run);
        runWorkload(sys, arr);
        sys.quiesce();
        std::ostringstream os;
        for (unsigned c = 0; c < sys.numChannels(); ++c) {
            sys.channel(c).counters().forEachField(
                [&](const char *n, const char *, std::uint64_t v) {
                    os << n << "=" << v << "\n";
                });
        }
        os << "now=" << sys.now();
        return os.str();
    };
    EXPECT_EQ(counters(false), counters(true));
}

TEST(TelemetryEndToEnd, BatchedAndPerLineEnginesAgree)
{
    // The bulk noteLatency path must land every latency in the same
    // buckets the per-line engine produces.
    auto collect = [](bool batched) {
        auto run = std::make_unique<obs::TelemetryRun>(
            "eng", telOpts(1e-4));
        MemorySystem sys(smallCfg());
        sys.setBatchedAccess(batched);
        Region arr =
            sys.allocate(sys.config().dramTotal() * 2, "arr");
        primeDirty(sys, arr, 4);
        sys.resetCounters();
        sys.attachTelemetry(run.get());
        runWorkload(sys, arr);
        sys.detachTelemetry();
        run->finish();
        return run;
    };
    auto batched = collect(true);
    auto per_line = collect(false);
    EXPECT_EQ(batched->totals(), per_line->totals());
    EXPECT_EQ(batched->runSketch(), per_line->runSketch());
    ASSERT_EQ(batched->windows().size(), per_line->windows().size());
    for (std::size_t i = 0; i < batched->windows().size(); ++i) {
        EXPECT_EQ(batched->windows()[i].sketch,
                  per_line->windows()[i].sketch)
            << "window " << i;
    }
}

// --------------------------------------------------------------------
// Session export: byte identity under registration order

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Run three labelled workloads, registering in @p order. */
void
writeSession(const std::vector<std::string> &order,
             const std::string &csv, const std::string &json)
{
    obs::SessionOptions opts;
    opts.telemetry.csvPath = csv;
    opts.telemetry.jsonPath = json;
    opts.telemetry.windowSeconds = 1e-4;
    obs::Session session(opts);
    // Telemetry-only flags must not force the sweep serial.
    EXPECT_FALSE(session.serialRequired());
    EXPECT_TRUE(session.enabled());
    for (const std::string &label : order) {
        MemorySystem sys(smallCfg());
        Region arr =
            sys.allocate(sys.config().dramTotal() * 2, "arr");
        primeDirty(sys, arr, 4);
        sys.resetCounters();
        if (obs::Observer *o = session.beginRun(label))
            sys.attachObserver(o);
        if (obs::TelemetryRun *tel =
                session.beginTelemetryRun(label))
            sys.attachTelemetry(tel);
        runWorkload(sys, arr);
        session.endRun();
    }
    session.write();
}

} // namespace

TEST(TelemetrySession, ExportIsByteIdenticalForAnyRunOrder)
{
    std::string dir = ::testing::TempDir();
    writeSession({"alpha", "beta", "gamma"}, dir + "tel_fwd.csv",
                 dir + "tel_fwd.json");
    writeSession({"gamma", "beta", "alpha"}, dir + "tel_rev.csv",
                 dir + "tel_rev.json");

    std::string fwd_csv = slurp(dir + "tel_fwd.csv");
    EXPECT_EQ(fwd_csv, slurp(dir + "tel_rev.csv"));
    EXPECT_EQ(slurp(dir + "tel_fwd.json"),
              slurp(dir + "tel_rev.json"));

    // Format spot checks.
    EXPECT_EQ(
        fwd_csv.rfind("run,window,t0,t1,channel,metric,value\n", 0),
        0u);
    EXPECT_NE(fwd_csv.find("alpha"), std::string::npos);
    EXPECT_NE(fwd_csv.find("eff_gbs"), std::string::npos);
    std::string json = slurp(dir + "tel_fwd.json");
    EXPECT_NE(json.find("\"nvsim-telemetry-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
}
