/**
 * @file
 * Causal-tracer tests: the per-request blame trees behind the
 * amplification attribution (obs/causal.hh). Covers the cause
 * taxonomy against Table I, Figure-3 ordering of the spans, seeded
 * sampling determinism (same seed => byte-identical folded stacks),
 * agreement between blame-tree cause counts and the PerfCounters
 * deltas on the paper's dirty-miss workload, warmup-reset semantics,
 * Perfetto flow events, and the no-observer bit-identity guarantee.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/json.hh"
#include "imc/channel.hh"
#include "kernels/kernels.hh"
#include "obs/causal.hh"
#include "obs/observer.hh"
#include "obs/session.hh"

using namespace nvsim;

// --------------------------------------------------------------------
// Cause taxonomy and per-class breakdowns (pure unit level)

TEST(CausalNames, CauseAndClassNames)
{
    EXPECT_STREQ(accessCauseName(AccessCause::TagProbe), "tag_probe");
    EXPECT_STREQ(accessCauseName(AccessCause::CacheFillRead),
                 "cache_fill_read");
    EXPECT_STREQ(accessCauseName(AccessCause::CacheInsertWrite),
                 "cache_insert_write");
    EXPECT_STREQ(accessCauseName(AccessCause::DataWrite), "data_write");
    EXPECT_STREQ(accessCauseName(AccessCause::DirtyWriteback),
                 "dirty_writeback");
    EXPECT_STREQ(accessCauseName(AccessCause::DdoElideWrite),
                 "ddo_elide_write");
    EXPECT_STREQ(accessCauseName(AccessCause::DirectAccess),
                 "direct_access");

    EXPECT_STREQ(obs::requestClassName(MemRequestKind::LlcRead,
                                       CacheOutcome::Hit),
                 "read_hit");
    EXPECT_STREQ(obs::requestClassName(MemRequestKind::LlcWrite,
                                       CacheOutcome::MissDirty),
                 "write_miss_dirty");
    EXPECT_STREQ(obs::requestClassName(MemRequestKind::LlcWrite,
                                       CacheOutcome::DdoHit),
                 "ddo_write");
    EXPECT_STREQ(obs::requestClassName(MemRequestKind::LlcRead,
                                       CacheOutcome::Uncached),
                 "read_direct");
}

namespace
{

CacheResult
directedResult(CacheOutcome outcome, bool filled, bool wrote_back)
{
    CacheResult cr;
    cr.outcome = outcome;
    cr.filled = filled;
    cr.wroteBack = wrote_back;
    return cr;
}

std::uint64_t
causeCount(const CausalBreakdown &b, AccessCause cause)
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < b.count; ++i)
        if (b.spans[i].cause == cause)
            ++n;
    return n;
}

} // namespace

TEST(CausalBreakdown, DirtyWriteMissPaysAllFiveCausesInFig3Order)
{
    // Table I row 6: a dirty LLC write miss costs 5 device accesses,
    // in the Figure 3 miss-handler order.
    ChannelParams p;
    CausalBreakdown b = causalBreakdown2lm(
        MemRequestKind::LlcWrite,
        directedResult(CacheOutcome::MissDirty, true, true), p);
    ASSERT_EQ(b.count, 5u);
    EXPECT_EQ(b.spans[0].cause, AccessCause::TagProbe);
    EXPECT_EQ(b.spans[0].device, MemPool::Dram);
    EXPECT_EQ(b.spans[1].cause, AccessCause::DirtyWriteback);
    EXPECT_EQ(b.spans[1].device, MemPool::Nvram);
    EXPECT_EQ(b.spans[2].cause, AccessCause::CacheFillRead);
    EXPECT_EQ(b.spans[2].device, MemPool::Nvram);
    EXPECT_EQ(b.spans[3].cause, AccessCause::CacheInsertWrite);
    EXPECT_EQ(b.spans[3].device, MemPool::Dram);
    EXPECT_EQ(b.spans[4].cause, AccessCause::DataWrite);
    EXPECT_EQ(b.spans[4].device, MemPool::Dram);
    EXPECT_DOUBLE_EQ(b.spans[1].latency, p.nvram.writeLatency);
    EXPECT_DOUBLE_EQ(b.spans[2].latency, p.nvram.readLatency);
}

TEST(CausalBreakdown, SpanCountsReproduceTableOne)
{
    ChannelParams p;
    struct Row
    {
        MemRequestKind kind;
        CacheResult cr;
        unsigned accesses;
    };
    const Row rows[] = {
        // Table I: read hit 1, read miss clean 3, read miss dirty 4,
        // write hit 2, write miss clean 4, DDO write 1; plus the
        // write-no-allocate ablation's 2-access write miss.
        {MemRequestKind::LlcRead,
         directedResult(CacheOutcome::Hit, false, false), 1},
        {MemRequestKind::LlcRead,
         directedResult(CacheOutcome::MissClean, true, false), 3},
        {MemRequestKind::LlcRead,
         directedResult(CacheOutcome::MissDirty, true, true), 4},
        {MemRequestKind::LlcWrite,
         directedResult(CacheOutcome::Hit, false, false), 2},
        {MemRequestKind::LlcWrite,
         directedResult(CacheOutcome::MissClean, true, false), 4},
        {MemRequestKind::LlcWrite,
         directedResult(CacheOutcome::DdoHit, false, false), 1},
        {MemRequestKind::LlcWrite,
         directedResult(CacheOutcome::MissClean, false, true), 2},
    };
    for (const Row &r : rows) {
        CausalBreakdown b = causalBreakdown2lm(r.kind, r.cr, p);
        EXPECT_EQ(b.count, r.accesses)
            << obs::requestClassName(r.kind, r.cr.outcome);
        // Every span is one 64 B transaction, so per-cause counts sum
        // to the request's amplification.
        std::uint64_t sum = 0;
        for (unsigned c = 0; c < kNumAccessCauses; ++c)
            sum += causeCount(b, static_cast<AccessCause>(c));
        EXPECT_EQ(sum, r.accesses);
    }

    // The no-allocate write miss goes tag probe + NVRAM data write —
    // no fill, no insert, and crucially no "writeback" label for what
    // is really the demand store's own data transfer.
    CausalBreakdown na = causalBreakdown2lm(
        MemRequestKind::LlcWrite,
        directedResult(CacheOutcome::MissClean, false, true), p);
    EXPECT_EQ(causeCount(na, AccessCause::DataWrite), 1u);
    EXPECT_EQ(causeCount(na, AccessCause::DirtyWriteback), 0u);
    EXPECT_EQ(na.spans[1].device, MemPool::Nvram);
}

// --------------------------------------------------------------------
// Sampling determinism

TEST(CausalTracer, SamplingIsPhaseLockedToTheSeed)
{
    obs::CausalOptions opts;
    opts.samplePeriod = 4;
    opts.seed = 7;  // phase = 7 % 4 = 3
    obs::CausalTracer t(opts, nullptr);
    std::string pattern;
    for (int i = 0; i < 12; ++i)
        pattern += t.shouldSample() ? '1' : '0';
    EXPECT_EQ(pattern, "000100010001");
    EXPECT_EQ(t.demands(), 12u);
}

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

/** The Figure 4b dirty-miss workload: NT stores over 2x capacity. */
KernelResult
dirtyMissRun(MemorySystem &sys, const Region &arr, unsigned threads)
{
    KernelConfig k;
    k.op = KernelOp::WriteOnly;
    k.nontemporal = true;
    k.threads = threads;
    return runKernel(sys, arr, k);
}

std::vector<std::string>
tracedDirtyMissFolded(std::uint64_t seed, std::uint64_t period)
{
    MemorySystem sys(smallCfg());
    Region arr = sys.allocate(sys.config().dramTotal() * 2, "arr");
    primeDirty(sys, arr, 4);
    sys.resetCounters();

    obs::Observer obs;
    obs::CausalOptions copts;
    copts.samplePeriod = period;
    copts.seed = seed;
    obs.enableCausal(copts);
    sys.attachObserver(&obs);
    dirtyMissRun(sys, arr, 4);
    sys.detachObserver();

    std::vector<std::string> folded;
    obs.causal()->foldedLines(folded, "");
    return folded;
}

} // namespace

TEST(CausalTracer, SameSeedProducesIdenticalFoldedStacks)
{
    std::vector<std::string> a = tracedDirtyMissFolded(42, 16);
    std::vector<std::string> b = tracedDirtyMissFolded(42, 16);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);

    // The folded stacks blame the right Fig-3 steps: the NT store
    // stream is dominated by dirty write misses.
    bool saw_dirty_wb = false;
    for (const std::string &line : a)
        if (line.find("write_miss_dirty;dirty_writeback ") !=
            std::string::npos)
            saw_dirty_wb = true;
    EXPECT_TRUE(saw_dirty_wb);

    // A different phase still samples ~1-in-N of the same demands.
    std::vector<std::string> c = tracedDirtyMissFolded(43, 16);
    ASSERT_FALSE(c.empty());
}

// --------------------------------------------------------------------
// Blame-tree counts vs PerfCounters on the dirty-miss workload

TEST(CausalTracer, BlameTreeCountsMatchPerfCounters)
{
    MemorySystem sys(smallCfg());
    Region arr = sys.allocate(sys.config().dramTotal() * 2, "arr");
    primeDirty(sys, arr, 4);
    sys.resetCounters();

    obs::Observer obs;
    obs::CausalOptions copts;
    copts.samplePeriod = 1;  // sample every demand request
    obs.enableCausal(copts);
    sys.attachObserver(&obs);

    PerfCounters before = sys.counters();
    KernelResult r = dirtyMissRun(sys, arr, 4);
    sys.detachObserver();
    PerfCounters d = sys.counters().delta(before);
    ASSERT_GT(d.tagMissDirty, 0u);

    obs::CausalTracer &t = *obs.causal();
    EXPECT_EQ(t.sampled(), t.demands());
    EXPECT_EQ(t.demands(), d.demand());

    // Aggregate the folded stacks per (class, cause).
    std::vector<std::string> folded;
    t.foldedLines(folded, "");
    std::map<std::string, std::uint64_t> byClassCause;
    std::uint64_t total = 0;
    for (const std::string &line : folded) {
        std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        std::uint64_t n = std::stoull(line.substr(space + 1));
        std::size_t ctx_end = line.find(';');
        ASSERT_NE(ctx_end, std::string::npos) << line;
        byClassCause[line.substr(ctx_end + 1, space - ctx_end - 1)] +=
            n;
        total += n;
    }

    // With every request sampled, the blame tree is a lossless
    // re-partition of the device traffic: per-cause counts must equal
    // the PerfCounters deltas exactly.
    EXPECT_EQ(total,
              d.dramRead + d.dramWrite + d.nvramRead + d.nvramWrite);
    EXPECT_EQ(byClassCause["write_miss_dirty;dirty_writeback"],
              d.nvramWrite);
    EXPECT_EQ(byClassCause["write_miss_dirty;cache_fill_read"] +
                  byClassCause["write_miss_clean;cache_fill_read"],
              d.nvramRead);
    // Exactly 5 accesses per dirty write miss (Table I row 6): every
    // dirty miss contributes one of each of its five causes.
    EXPECT_EQ(byClassCause["write_miss_dirty;dirty_writeback"],
              d.tagMissDirty);
    EXPECT_EQ(byClassCause["write_miss_dirty;tag_probe"],
              d.tagMissDirty);
    EXPECT_EQ(byClassCause["write_miss_dirty;cache_fill_read"],
              d.tagMissDirty);
    EXPECT_EQ(byClassCause["write_miss_dirty;cache_insert_write"],
              d.tagMissDirty);
    EXPECT_EQ(byClassCause["write_miss_dirty;data_write"],
              d.tagMissDirty);
    EXPECT_GT(r.counters.tagMissDirty, 0u);
}

// --------------------------------------------------------------------
// Warmup reset and determinism of the measured region

TEST(CausalTracer, ResetCountersDropsWarmupAndReseeds)
{
    // A run with a warmup pass + resetCounters must attribute exactly
    // what a fresh run of the measured region attributes.
    std::vector<std::string> fresh = tracedDirtyMissFolded(9, 8);

    MemorySystem sys(smallCfg());
    Region arr = sys.allocate(sys.config().dramTotal() * 2, "arr");
    primeDirty(sys, arr, 4);
    sys.resetCounters();

    obs::Observer obs;
    obs::CausalOptions copts;
    copts.samplePeriod = 8;
    copts.seed = 9;
    obs.enableCausal(copts);
    sys.attachObserver(&obs);
    dirtyMissRun(sys, arr, 2);  // warmup, to be discarded
    sys.resetCounters();
    dirtyMissRun(sys, arr, 4);  // measured region
    sys.detachObserver();

    std::vector<std::string> warm;
    obs.causal()->foldedLines(warm, "");
    EXPECT_EQ(warm, fresh);
}

// --------------------------------------------------------------------
// No-observer bit-identity

TEST(CausalTracer, ObservedRunLeavesSimulationUnchanged)
{
    auto run = [](bool observed) {
        MemorySystem sys(smallCfg());
        Region arr = sys.allocate(sys.config().dramTotal() * 2, "arr");
        primeDirty(sys, arr, 4);
        sys.resetCounters();
        obs::Observer obs;
        if (observed) {
            obs::CausalOptions copts;
            copts.samplePeriod = 4;
            obs.enableCausal(copts);
            sys.attachObserver(&obs);
        }
        dirtyMissRun(sys, arr, 4);
        if (observed)
            sys.detachObserver();
        return std::make_pair(sys.counters(), sys.now());
    };
    auto plain = run(false);
    auto traced = run(true);
    EXPECT_DOUBLE_EQ(plain.second, traced.second);
    bool equal = true;
    plain.first.forEachField([&](const char *name, const char *,
                                 std::uint64_t v) {
        std::uint64_t other = 0;
        traced.first.forEachField(
            [&](const char *n2, const char *, std::uint64_t v2) {
                if (std::string(name) == n2)
                    other = v2;
            });
        if (v != other)
            equal = false;
    });
    EXPECT_TRUE(equal);
}

// --------------------------------------------------------------------
// Session plumbing: attribution JSON, folded file, Perfetto flows

TEST(CausalSession, WritesAttributionFoldedAndFlowFiles)
{
    std::string dir = ::testing::TempDir();
    obs::SessionOptions opts;
    opts.perfettoPath = dir + "causal_trace.json";
    opts.causalJsonPath = dir + "causal_attr.json";
    opts.foldedPath = dir + "causal_folded.txt";
    opts.causalSamplePeriod = 4;
    opts.causalSeed = 11;
    {
        obs::Session session(opts);
        MemorySystem sys(smallCfg());
        Region arr = sys.allocate(sys.config().dramTotal() * 2, "arr");
        primeDirty(sys, arr, 2);
        sys.resetCounters();
        if (obs::Observer *o = session.beginRun("4b_nt_dirty"))
            sys.attachObserver(o);
        dirtyMissRun(sys, arr, 2);
        session.endRun();
        session.write();
    }

    auto slurp = [](const std::string &path) {
        std::ifstream in(path);
        EXPECT_TRUE(in.good()) << path;
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };

    std::string attr = slurp(opts.causalJsonPath);
    EXPECT_NE(attr.find("\"schema\":\"nvsim-causal-v1\""),
              std::string::npos);
    EXPECT_NE(attr.find("\"label\":\"4b_nt_dirty\""),
              std::string::npos);
    EXPECT_NE(attr.find("\"write_miss_dirty\""), std::string::npos);
    EXPECT_NE(attr.find("\"dirty_writeback\""), std::string::npos);
    EXPECT_NE(attr.find("\"exemplars\""), std::string::npos);

    std::string folded = slurp(opts.foldedPath);
    EXPECT_EQ(folded.rfind("4b_nt_dirty;", 0), 0u);
    EXPECT_NE(folded.find(";write_miss_dirty;tag_probe "),
              std::string::npos);

    // The timeline carries flow events binding each exemplar demand
    // span to its induced device spans.
    std::string trace = slurp(opts.perfettoPath);
    EXPECT_NE(trace.find("\"cat\":\"causal\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(trace.find("\"bp\":\"e\""), std::string::npos);
    EXPECT_NE(trace.find("tag_probe@dram"), std::string::npos);
}

// --------------------------------------------------------------------
// Queued controller: queue spans appended at completion

namespace
{

/** The charged total and the per-cause spans of one sampled request. */
struct TracedRequest
{
    std::string klass;
    double latency = 0;
    std::map<std::string, unsigned> causes;
    std::map<std::string, double> causeLatency;

    /** Number of spans blamed on @p cause. */
    unsigned
    count(const std::string &cause) const
    {
        auto it = causes.find(cause);
        return it == causes.end() ? 0 : it->second;
    }

    /** Summed latency of the spans blamed on @p cause (0 if none). */
    double
    spans(const std::string &cause) const
    {
        auto it = causeLatency.find(cause);
        return it == causeLatency.end() ? 0.0 : it->second;
    }
};

/**
 * Run @p k under a saturated FR-FCFS controller with every demand
 * request sampled and kept as an exemplar; return the exemplars.
 */
std::vector<TracedRequest>
queuedExemplars(const KernelConfig &k, std::uint64_t &sampled)
{
    SystemConfig cfg = smallCfg();
    cfg.controller.scheduler = "frfcfs";
    cfg.controller.offeredGBs = 8;
    MemorySystem sys(cfg);
    Region arr = sys.allocate(256 * kKiB, "arr");

    obs::Observer obs;
    obs::CausalOptions copts;
    copts.samplePeriod = 1;
    copts.reservoirSize = 16384;  // more than the run issues: keep all
    obs.enableCausal(copts);
    sys.attachObserver(&obs);
    runKernel(sys, arr, k);
    sys.detachObserver();

    const obs::CausalTracer &t = *obs.causal();
    sampled = t.sampled();
    EXPECT_EQ(t.sampled(), t.demands());
    EXPECT_LE(t.sampled(), copts.reservoirSize);

    std::ostringstream os;
    t.dumpJson(os);
    JsonValue doc = parseJson(os.str(), "causal attribution");
    std::vector<TracedRequest> out;
    for (const JsonValue &e : doc.find("exemplars")->items()) {
        TracedRequest r;
        r.klass = e.find("class")->asString();
        r.latency = e.find("latency_s")->asNumber();
        for (const JsonValue &s : e.find("spans")->items()) {
            const std::string &cause = s.find("cause")->asString();
            ++r.causes[cause];
            r.causeLatency[cause] += s.find("latency_s")->asNumber();
        }
        out.push_back(r);
    }
    return out;
}

} // namespace

TEST(CausalTracer, QueuedReadTotalsAreAnalyticPlusQueueSpans)
{
    KernelConfig k;
    k.op = KernelOp::ReadOnly;
    k.pattern = AccessPattern::Random;
    k.threads = 4;
    std::uint64_t sampled = 0;
    std::vector<TracedRequest> reqs = queuedExemplars(k, sampled);
    ASSERT_EQ(reqs.size(), sampled);

    unsigned reads = 0, queue_wait = 0, bank_conflict = 0;
    for (const TracedRequest &r : reqs) {
        if (r.klass.rfind("read_", 0) != 0)
            continue;
        ++reads;
        // The charged total is the analytic service captured at issue
        // (the serial tag probe and NVRAM fetch; the insert write and a
        // dirty victim's writeback are posted off the critical path)
        // plus the queue-wait and bank-conflict spans the controller
        // appended at completion. JSON keeps 9 significant digits.
        const double analytic = r.spans("tag_probe") +
                                r.spans("cache_fill_read") +
                                r.spans("bypass_read");
        const double queue = r.spans("queue_wait") +
                             r.spans("write_drain") +
                             r.spans("bank_conflict");
        EXPECT_NEAR(r.latency, analytic + queue, 1e-8 * r.latency)
            << r.klass;
        EXPECT_LE(r.count("queue_wait") + r.count("write_drain"), 1u);
        EXPECT_LE(r.count("bank_conflict"), 1u);
        queue_wait += r.count("queue_wait");
        bank_conflict += r.count("bank_conflict");
    }
    EXPECT_GT(reads, 0u);
    EXPECT_GT(queue_wait, 0u);
    EXPECT_GT(bank_conflict, 0u);
}

TEST(CausalTracer, QueuedWritesBehindADrainBurstBlameWriteDrain)
{
    KernelConfig k;
    k.op = KernelOp::WriteOnly;
    k.nontemporal = true;
    k.threads = 4;
    std::uint64_t sampled = 0;
    std::vector<TracedRequest> reqs = queuedExemplars(k, sampled);
    ASSERT_EQ(reqs.size(), sampled);

    unsigned write_drain = 0;
    for (const TracedRequest &r : reqs)
        write_drain += r.count("write_drain");
    EXPECT_GT(write_drain, 0u);
}
