/**
 * @file
 * Differential-telemetry tests: a self-diff of identical artifacts is
 * empty; an injected counter perturbation is detected, localized to
 * its window/channel, and blamed on the right counter family; manifest
 * mismatches are diagnostics rather than crashes; and rank diffs over
 * reconstructed sketches are exact at bucket resolution.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/kernels.hh"
#include "obs/diff/diff.hh"
#include "obs/diff/teldoc.hh"
#include "obs/session.hh"
#include "sys/memsys.hh"

using namespace nvsim;
using namespace nvsim::obs;

namespace
{

constexpr std::size_t kF = kNumPerfFields;

std::size_t
fidx(PerfField f)
{
    return static_cast<std::size_t>(f);
}

/** A synthetic window with steady demand and refresh activity. */
TelemetryWindow
steadyWindow(std::int64_t index)
{
    TelemetryWindow w;
    w.index = index;
    w.activeS = 1e-3;
    w.epochs = 1;
    w.demandBytes = 1e6;
    w.all[fidx(PerfField::llcReads)] = 1000;
    w.all[fidx(PerfField::dramRead)] = 900;
    w.all[fidx(PerfField::nvramRead)] = 100;
    w.all[fidx(PerfField::refreshSlots)] = 4;
    w.all[fidx(PerfField::maintenanceStallNs)] = 2000;
    w.perChannel.assign(kF, 0.0);
    for (std::size_t f = 0; f < kF; ++f)
        w.perChannel[f] = w.all[f];
    w.sketch.add(500, 100);
    w.sketch.add(2000, 1);
    return w;
}

/** A synthetic single-channel run of @p n steady windows. */
TelRun
steadyRun(const std::string &label, int n)
{
    TelRun r;
    r.label = label;
    r.channels = 1;
    r.windowS = 1e-3;
    r.config = {"0xdeadbeefdeadbeef", "2lm", 8192};
    for (int i = 0; i < n; ++i) {
        TelemetryWindow w = steadyWindow(i);
        for (std::size_t f = 0; f < kF; ++f)
            r.totals[f] += w.all[f];
        r.latency.merge(w.sketch);
        r.windows.push_back(std::move(w));
    }
    return r;
}

TelDoc
docOf(TelRun run)
{
    TelDoc d;
    d.schema = "nvsim-telemetry-v1";
    d.windowS = run.windowS;
    d.hasManifest = true;
    d.manifest.bench = "synthetic";
    d.runs.push_back(std::move(run));
    return d;
}

} // namespace

// --------------------------------------------------------------------
// diffTelemetry

TEST(Diff, SelfDiffIsEmpty)
{
    TelDoc a = docOf(steadyRun("r", 6));
    TelDoc b = docOf(steadyRun("r", 6));
    DiffReport report = diffTelemetry(a, b, {});
    EXPECT_TRUE(report.empty());
    EXPECT_EQ(report.comparability, Comparability::Comparable);
    EXPECT_TRUE(report.diagnostics.empty());
    ASSERT_EQ(report.runs.size(), 1u);
    EXPECT_TRUE(report.runs[0].entries.empty());
    EXPECT_TRUE(report.runs[0].rankDiffs.empty());
    EXPECT_TRUE(report.runs[0].families.empty());
    EXPECT_NE(report.text({}).find("identical"), std::string::npos);
}

TEST(Diff, PerturbationIsLocalizedAndBlamed)
{
    TelDoc a = docOf(steadyRun("r", 6));
    TelDoc b = docOf(steadyRun("r", 6));
    // A refresh storm in window 3: REF commands spike and drag
    // bank-stall time with them.
    TelemetryWindow &w = b.runs[0].windows[3];
    std::size_t tr = fidx(PerfField::refreshSlots);
    std::size_t st = fidx(PerfField::maintenanceStallNs);
    w.all[tr] += 200;
    w.all[st] += 90000;
    w.perChannel[tr] += 200;
    w.perChannel[st] += 90000;
    b.runs[0].totals[tr] += 200;
    b.runs[0].totals[st] += 90000;

    DiffReport report = diffTelemetry(a, b, {});
    EXPECT_FALSE(report.empty());
    ASSERT_EQ(report.runs.size(), 1u);
    const RunDiff &rd = report.runs[0];

    // Both changed counters appear, on the aggregate and the channel
    // (plus the derived maint_duty they move) — all pinned to window
    // 3, and nothing else changed.
    ASSERT_GE(rd.entries.size(), 4u);
    bool sawAll = false, sawCh0 = false;
    for (const DiffEntry &e : rd.entries) {
        EXPECT_EQ(e.window, 3);
        EXPECT_TRUE(e.metric == "refresh_slots" ||
                    e.metric == "maintenance_stall_ns" ||
                    e.metric == "maint_duty")
            << e.metric;
        EXPECT_GT(e.delta, 0.0);
        sawAll = sawAll || e.channel == "all";
        sawCh0 = sawCh0 || e.channel == "ch0";
    }
    EXPECT_TRUE(sawAll);
    EXPECT_TRUE(sawCh0);

    // The family summary blames maintenance, led by the counter whose
    // run total moved the most in relative terms (the refresh storm
    // explains the stall delta, per the cause taxonomy).
    ASSERT_FALSE(rd.families.empty());
    EXPECT_EQ(rd.families[0].family, "maintenance");
    EXPECT_EQ(rd.families[0].dominant, "refresh_slots");
    EXPECT_NE(rd.families[0].cause.find("REF cadence"),
              std::string::npos);

    std::string text = report.text({});
    EXPECT_NE(text.find("blame maintenance"), std::string::npos);
    EXPECT_NE(text.find("maintenance_stall_ns"), std::string::npos);
    EXPECT_NE(text.find("window 3"), std::string::npos);

    std::string json = report.json({});
    EXPECT_NE(json.find("\"nvsim-telemetry-diff-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"family\":\"maintenance\""),
              std::string::npos);
}

TEST(Diff, ManifestMismatchIsDiagnosticNotFatal)
{
    TelDoc a = docOf(steadyRun("r", 4));
    TelDoc b = docOf(steadyRun("r", 4));
    b.manifest.causalSeed = 7;
    b.manifest.flags = {"--per-line"};
    b.runs[0].config.hash = "0x0123456789abcdef";

    DiffReport report = diffTelemetry(a, b, {});
    // Metrics identical, but the provenance differences are reported
    // and make the comparison non-empty.
    EXPECT_EQ(report.comparability, Comparability::Diagnostics);
    EXPECT_FALSE(report.empty());
    ASSERT_EQ(report.runs.size(), 1u);
    EXPECT_TRUE(report.runs[0].configMismatch);
    EXPECT_TRUE(report.runs[0].entries.empty());
    std::string all;
    for (const std::string &d : report.diagnostics)
        all += d + "\n";
    EXPECT_NE(all.find("seed"), std::string::npos);
    EXPECT_NE(all.find("flags"), std::string::npos);
    EXPECT_NE(all.find("config hash"), std::string::npos);
}

TEST(Diff, WindowGeometryMismatchIsIncomparable)
{
    TelDoc a = docOf(steadyRun("r", 4));
    TelDoc b = docOf(steadyRun("r", 4));
    b.windowS = 2e-3;
    DiffReport report = diffTelemetry(a, b, {});
    EXPECT_EQ(report.comparability, Comparability::Incomparable);
    EXPECT_TRUE(report.runs.empty());
    EXPECT_FALSE(report.empty());

    DiffOptions force;
    force.force = true;
    DiffReport forced = diffTelemetry(a, b, force);
    EXPECT_EQ(forced.comparability, Comparability::Incomparable);
    EXPECT_EQ(forced.runs.size(), 1u);  // --force diffs anyway
}

TEST(Diff, UnmatchedRunLabelsAreReported)
{
    TelDoc a = docOf(steadyRun("left", 3));
    TelDoc b = docOf(steadyRun("right", 3));
    DiffReport report = diffTelemetry(a, b, {});
    EXPECT_FALSE(report.empty());
    ASSERT_EQ(report.onlyInA.size(), 1u);
    ASSERT_EQ(report.onlyInB.size(), 1u);
    EXPECT_EQ(report.onlyInA[0], "left");
    EXPECT_EQ(report.onlyInB[0], "right");
}

TEST(Diff, MissingWindowCountsAsDifference)
{
    TelDoc a = docOf(steadyRun("r", 5));
    TelDoc b = docOf(steadyRun("r", 4));  // window 4 never produced
    // Equalize the run-level aggregates so only the window absence
    // itself differs.
    a.runs[0].totals = b.runs[0].totals;
    a.runs[0].latency = b.runs[0].latency;
    DiffReport report = diffTelemetry(a, b, {});
    ASSERT_EQ(report.runs.size(), 1u);
    EXPECT_FALSE(report.runs[0].entries.empty());
    for (const DiffEntry &e : report.runs[0].entries)
        EXPECT_EQ(e.window, 4);
}

// --------------------------------------------------------------------
// Rank diffs: exact to bucket resolution

TEST(Diff, RankDiffExactAtBucketBoundaries)
{
    // The [128, 256) octave has 2-wide sub-buckets: 129 and 130 land
    // in adjacent buckets, so the p50/p90 ranks must differ; 128 and
    // 129 share a bucket, so the rank diff must be exactly empty even
    // though the raw samples differ. The 100/1000 padding pins min
    // and max so the sketch's [min, max] clamp cannot leak the raw
    // values back into the percentile representatives.
    auto runWith = [](std::uint64_t x) {
        TelRun r = steadyRun("r", 1);
        r.latency.clear();
        r.latency.add(100, 90);
        r.latency.add(x, 100);
        r.latency.add(1000, 10);
        r.windows[0].sketch = r.latency;
        return r;
    };
    ASSERT_NE(LatencySketch::bucketOf(129), LatencySketch::bucketOf(130));
    ASSERT_EQ(LatencySketch::bucketOf(128), LatencySketch::bucketOf(129));

    DiffReport differs = diffTelemetry(docOf(runWith(129)),
                                       docOf(runWith(130)), {});
    ASSERT_EQ(differs.runs.size(), 1u);
    ASSERT_FALSE(differs.runs[0].rankDiffs.empty());
    for (const RankDiff &rk : differs.runs[0].rankDiffs) {
        EXPECT_TRUE(rk.rank == "p50_ns" || rk.rank == "p90_ns")
            << rk.rank;
        EXPECT_NE(rk.a, rk.b);
    }

    DiffReport same = diffTelemetry(docOf(runWith(128)),
                                    docOf(runWith(129)), {});
    ASSERT_EQ(same.runs.size(), 1u);
    EXPECT_TRUE(same.runs[0].rankDiffs.empty());
    EXPECT_TRUE(same.empty())
        << "values within one bucket must diff empty";
}

TEST(Sketch, FromSparseRoundTripsExactly)
{
    LatencySketch s;
    std::uint64_t state = 99;
    for (int i = 0; i < 5000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        s.add(state % 3000000, 1 + state % 3);
    }
    LatencySketch back = LatencySketch::fromSparse(
        s.sparse(), s.min(), s.max(), s.sum());
    EXPECT_EQ(back, s);
    EXPECT_EQ(back.quantile(0.999), s.quantile(0.999));
    EXPECT_EQ(back.min(), s.min());
    EXPECT_EQ(back.max(), s.max());
}

// --------------------------------------------------------------------
// End to end: session JSON -> teldoc -> self-diff

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

void
writeSession(const std::string &json)
{
    SessionOptions opts;
    opts.telemetry.jsonPath = json;
    opts.telemetry.windowSeconds = 1e-4;
    opts.telemetry.manifest.bench = "test_diff";
    Session session(opts);
    for (const char *label : {"alpha", "beta"}) {
        MemorySystem sys(smallCfg());
        Region arr = sys.allocate(sys.config().dramTotal() * 2, "arr");
        primeDirty(sys, arr, 4);
        sys.resetCounters();
        if (Observer *o = session.beginRun(label))
            sys.attachObserver(o);
        if (TelemetryRun *tel = session.beginTelemetryRun(label))
            sys.attachTelemetry(tel);
        KernelConfig k;
        k.op = KernelOp::ReadModifyWrite;
        k.threads = 4;
        runKernel(sys, arr, k);
        session.endRun();
    }
    session.write();
}

} // namespace

TEST(DiffEndToEnd, ExportedArtifactSelfDiffsEmpty)
{
    std::string dir = ::testing::TempDir();
    writeSession(dir + "diff_tel_a.json");
    writeSession(dir + "diff_tel_b.json");

    TelDoc a = loadTelemetryDoc(dir + "diff_tel_a.json");
    TelDoc b = loadTelemetryDoc(dir + "diff_tel_b.json");
    EXPECT_TRUE(a.hasManifest);
    EXPECT_EQ(a.manifest.bench, "test_diff");
    ASSERT_EQ(a.runs.size(), 2u);
    EXPECT_FALSE(a.runs[0].config.empty());
    EXPECT_FALSE(a.runs[0].latency.empty());
    EXPECT_FALSE(a.runs[0].windows.empty());

    DiffReport report = diffTelemetry(a, b, {});
    EXPECT_TRUE(report.empty()) << report.text({});
}

TEST(DiffEndToEnd, LoadsManifestsWithUnknownKeys)
{
    // Documents written before a key was retired still carry it: a
    // manifest key, and the per-run "anomalies" list of the retired
    // online detector. The reader ignores keys it does not know and
    // keeps the rest, so the edited document self-diffs empty against
    // the one it was edited from.
    std::string dir = ::testing::TempDir();
    std::string path = dir + "diff_tel_extra_key.json";
    writeSession(path);
    TelDoc clean = loadTelemetryDoc(path);
    std::stringstream ss;
    ss << std::ifstream(path).rdbuf();
    std::string text = ss.str();
    std::size_t man = text.find("\"manifest\":{");
    ASSERT_NE(man, std::string::npos);
    std::size_t at = text.find("\"window_s\":", man);
    ASSERT_NE(at, std::string::npos);
    text.insert(at, "\"retired_yardstick\":0.25,");
    const std::string anomalies =
        "\"anomalies\":[{\"window\":2,\"metric\":\"eff_gbs\","
        "\"value\":0,\"expected\":10,\"z\":9}],";
    std::size_t runs = 0;
    for (std::size_t pos = text.find("\"windows_dropped\":");
         pos != std::string::npos;
         pos = text.find("\"windows_dropped\":",
                         pos + anomalies.size() + 1)) {
        text.insert(pos, anomalies);
        ++runs;
    }
    EXPECT_EQ(runs, 2u);
    std::ofstream(path, std::ios::trunc) << text;

    TelDoc doc = loadTelemetryDoc(path);
    EXPECT_TRUE(doc.hasManifest);
    EXPECT_EQ(doc.manifest.bench, "test_diff");
    EXPECT_EQ(doc.runs.size(), 2u);
    DiffReport report = diffTelemetry(clean, doc, {});
    EXPECT_TRUE(report.empty()) << report.text({});
}
