/**
 * @file
 * Workload driver of the nvsim benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S [--reps R]
 *             [--spans FILE]
 *
 * Runs one workload's fixed sequence of simulation points back to
 * back on one host thread, repeating set-up + timed phase until S
 * seconds have passed (at least three repetitions, or exactly R). Every
 * call goes through the simulator's public API; nothing in src/ is
 * changed, so simulated outputs are the library's own. Prints one JSON
 * document on stdout: per repetition the host time of every set-up step
 * and every point with the host-speed reference samples taken between
 * them, and per point every simulated counter plus the public LLC and
 * NVRAM statistics the law checker in analysis.py reads.
 *
 * Seeds: --seed feeds the LFSR seeds of micro_2lm and queued and the
 * generator seeds of graph; the simulator only sees generated inputs.
 * dnn_train has no seed: network construction is deterministic.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dnn/autotm.hh"
#include "dnn/executor.hh"
#include "dnn/networks.hh"
#include "graphs/generators.hh"
#include "graphs/runner.hh"
#include "kernels/kernels.hh"
#include "obs/telemetry/telemetry.hh"
#include "sys/memsys.hh"
#include "trace.hh"

using namespace nvsim;
namespace trace = perfbench::trace;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** splitmix64: independent per-purpose seeds from the one --seed. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Host-speed reference, sampled before set-up, after every set-up step
 * and after every point. On a shared host the speed of this core drifts
 * by up to ~1.6x over seconds to minutes (other tenants' load on the
 * physical core), so run.py expresses set-up and point times at a
 * nominal speed: each step or point is divided by the reference's
 * slow-down around it. The reference is four independent xorshift
 * streams, throughput bound: of the probes tried it tracked the
 * simulator best. It calls nothing in the simulator, so a faster
 * simulator does not make the reference faster.
 */
double
referenceSample()
{
    static std::uint64_t sink = 0;
    auto t0 = Clock::now();
    std::uint64_t a = 88172645463325252ull + sink;
    std::uint64_t b = a ^ 1, c = a ^ 2, d = a ^ 3;
    for (int i = 0; i < 1500000; ++i) {
        a ^= a << 13;
        b ^= b << 13;
        c ^= c << 13;
        d ^= d << 13;
        a ^= a >> 7;
        b ^= b >> 7;
        c ^= c >> 7;
        d ^= d >> 7;
        a ^= a << 17;
        b ^= b << 17;
        c ^= c << 17;
        d ^= d << 17;
    }
    sink = a ^ b ^ c ^ d;
    return secondsSince(t0);
}

/**
 * Set-up cut into steps (a point built and primed, an input generated)
 * with a reference sample after each; the samples' own time is left
 * out of the steps.
 */
struct SetupSteps
{
    bool active = false;
    Clock::time_point t0;
    std::vector<double> seconds;
    std::vector<double> ref;  //!< before the first step, after each

    void
    begin()
    {
        *this = SetupSteps{};
        active = true;
        ref.push_back(referenceSample());
        t0 = Clock::now();
    }

    void
    step()
    {
        if (!active)
            return;
        seconds.push_back(secondsSince(t0));
        ref.push_back(referenceSample());
        t0 = Clock::now();
    }
};

SetupSteps g_setupSteps;

/** One simulation point's outputs, as the analysis reads them. */
struct PointResult
{
    std::string name;
    MemoryMode mode = MemoryMode::TwoLm;
    double hostSeconds = 0;  //!< timed host time of run()
    double simSeconds = 0;
    Bytes demandBytes = 0;
    double offeredGbs = 0;  //!< queued points only
    PerfCounters counters;
    std::uint64_t llcHits = 0, llcMisses = 0, llcDirtyEvictions = 0;
    std::uint64_t nvBusWrites = 0, nvMediaWriteBlocks = 0;
    std::uint64_t p50Ns = 0, p99Ns = 0;  //!< queued points only
    bool hasAnswer = false;
    std::uint64_t answer = 0, expectedAnswer = 0;
};

/**
 * A simulation point after set-up: run() is the timed part and fills
 * the result. Points own their system, so each repetition starts from
 * the identical primed state.
 */
struct Point
{
    std::string name;
    std::unique_ptr<MemorySystem> sys;
    std::function<void(PointResult &)> run;
    /** Untimed: fills the host-side expected answer, if any. */
    std::function<void(PointResult &)> verify;
    std::uint64_t nvBusWrites0 = 0, nvMediaWriteBlocks0 = 0;
};

void
nvramTotals(MemorySystem &sys, std::uint64_t &bus_writes,
            std::uint64_t &media_blocks)
{
    bus_writes = media_blocks = 0;
    for (unsigned i = 0; i < sys.numChannels(); ++i) {
        const NvramDevice &nv = sys.channel(i).nvram();
        bus_writes += nv.total().demandWrites + nv.epoch().demandWrites;
        media_blocks +=
            nv.total().mediaWriteBlocks + nv.epoch().mediaWriteBlocks;
    }
}

/** Set-up seconds spent generating inputs (graphs, networks, plans). */
double g_genSeconds = 0;

template <typename F>
auto
timedGen(F &&f)
{
    auto t0 = Clock::now();
    auto r = f();
    g_genSeconds += secondsSince(t0);
    g_setupSteps.step();
    return r;
}

// --- micro_2lm and queued: Figure 4 kernels on a primed 2LM array ---

constexpr std::uint64_t kFig4Scale = 4096;

/**
 * The queued points run the per-line engine, ~3x the host cost of the
 * batched one, so their array is a quarter of Figure 4's.
 */
constexpr std::uint64_t kQueuedScale = kFig4Scale * 4;

struct KernelPointSpec
{
    std::string name;
    KernelOp op;
    AccessPattern pattern;
    bool nontemporal;
    bool primeDirty;
    unsigned threads;
    std::uint64_t scale = kFig4Scale;
    const char *scheduler = "analytic";
    double offeredGbs = 0;
};

Point
kernelPoint(const KernelPointSpec &s, std::uint64_t lfsr_seed)
{
    SystemConfig cfg;
    cfg.mode = MemoryMode::TwoLm;
    cfg.scale = s.scale;
    cfg.controller.scheduler = s.scheduler;
    cfg.controller.offeredGBs = s.offeredGbs;
    Point p;
    p.name = s.name;
    p.sys = makeSystem(cfg);
    MemorySystem *sys = p.sys.get();
    Region arr = sys->allocate(cfg.dramTotal() * 22 / 10, "array");
    if (s.primeDirty)
        primeDirty(*sys, arr, 8);
    else
        primeClean(*sys, arr, 8);
    sys->resetCounters();
    const bool queued = std::string(s.scheduler) != "analytic";
    p.run = [sys, arr, s, lfsr_seed, queued](PointResult &r) {
        KernelConfig k;
        k.op = s.op;
        k.pattern = s.pattern;
        k.threads = s.threads;
        k.nontemporal = s.nontemporal;
        k.seed = lfsr_seed;
        // The queued points report demand-latency percentiles, read
        // from the library's own telemetry sketch.
        std::unique_ptr<obs::TelemetryRun> tel;
        if (queued) {
            tel = std::make_unique<obs::TelemetryRun>(
                s.name, obs::TelemetryOptions{});
            sys->attachTelemetry(tel.get());
        }
        KernelResult kr = runKernel(*sys, arr, k);
        if (tel) {
            tel->finish();
            sys->detachTelemetry();
            r.p50Ns = tel->quantileNs(0.50);
            r.p99Ns = tel->quantileNs(0.99);
        }
        r.simSeconds = kr.seconds;
        r.demandBytes = kr.demandBytes;
        r.offeredGbs = s.offeredGbs;
        r.counters = kr.counters;
    };
    g_setupSteps.step();
    return p;
}

std::vector<Point>
setupMicro2lm(std::uint64_t seed)
{
    std::uint64_t lfsr = deriveSeed(seed, 1);
    std::vector<Point> pts;
    for (AccessPattern pat :
         {AccessPattern::Sequential, AccessPattern::Random}) {
        std::string pn = accessPatternName(pat);
        pts.push_back(kernelPoint({"4a/" + pn, KernelOp::ReadOnly, pat,
                                   true, false, 24},
                                  lfsr));
        pts.push_back(kernelPoint({"4b/" + pn, KernelOp::WriteOnly, pat,
                                   true, true, 24},
                                  lfsr));
        pts.push_back(kernelPoint({"4c/" + pn,
                                   KernelOp::ReadModifyWrite, pat, false,
                                   true, 4},
                                  lfsr));
    }
    return pts;
}

/**
 * Offered loads below, near and past the ~9.9 GB/s analytic capacity
 * of the 4a random stream. Kept as they are on purpose: the loads
 * below capacity expose the known effective > offered defect.
 */
const double kQueuedLoads[] = {1, 2, 8, 16};

std::vector<Point>
setupQueued(std::uint64_t seed)
{
    std::uint64_t lfsr = deriveSeed(seed, 2);
    std::vector<Point> pts;
    const AccessPattern rnd = AccessPattern::Random;
    pts.push_back(kernelPoint({"analytic/4a", KernelOp::ReadOnly, rnd,
                               true, false, 24, kQueuedScale},
                              lfsr));
    pts.push_back(kernelPoint({"analytic/4b", KernelOp::WriteOnly, rnd,
                               true, true, 24, kQueuedScale},
                              lfsr));
    for (double load : kQueuedLoads) {
        char tag[32];
        std::snprintf(tag, sizeof tag, "frfcfs@%g", load);
        pts.push_back(kernelPoint({std::string(tag) + "/4a",
                                   KernelOp::ReadOnly, rnd, true, false,
                                   24, kQueuedScale, "frfcfs", load},
                                  lfsr));
        pts.push_back(kernelPoint({std::string(tag) + "/4b",
                                   KernelOp::WriteOnly, rnd, true, true,
                                   24, kQueuedScale, "frfcfs", load},
                                  lfsr));
    }
    return pts;
}

// --- graph: kron30-like pagerank-push and wdc12-like bfs in 2LM ---

/**
 * Capacity divisor for the graph system. Four times the figures'
 * 8192 so that inputs a quarter of the figures' size keep the paper's
 * ratios: kron fits the DRAM cache, wdc exceeds it by ~1.3x.
 */
constexpr std::uint64_t kGraphScale = 8192 * 4;

SystemConfig
graphSystem()
{
    SystemConfig cfg;
    cfg.mode = MemoryMode::TwoLm;
    cfg.sockets = 2;
    cfg.scale = kGraphScale;
    cfg.scatterPages = true;
    return cfg;
}

graphs::GraphRunConfig
graphRun()
{
    graphs::GraphRunConfig cfg;
    cfg.placement = graphs::Placement::TwoLm;
    cfg.threads = 96;
    cfg.prRounds = 2;
    return cfg;
}

/** Host-side BFS: nodes reachable from the max-degree node. */
std::uint64_t
hostBfsVisited(const graphs::CsrGraph &g)
{
    std::vector<char> seen(g.numNodes(), 0);
    std::vector<graphs::Node> frontier{g.maxDegreeNode()}, next;
    seen[frontier[0]] = 1;
    std::uint64_t visited = 1;
    while (!frontier.empty()) {
        next.clear();
        for (graphs::Node v : frontier) {
            for (std::uint64_t e = g.edgeBegin(v); e < g.edgeEnd(v); ++e) {
                graphs::Node d = g.edgeDest(e);
                if (!seen[d]) {
                    seen[d] = 1;
                    next.push_back(d);
                    ++visited;
                }
            }
        }
        frontier.swap(next);
    }
    return visited;
}

/** Host-side pagerank-push, same float order: the max-rank node. */
std::uint64_t
hostPagerankBest(const graphs::CsrGraph &g, unsigned rounds)
{
    const graphs::Node n = g.numNodes();
    const float damping = 0.85f;
    const float base = (1.0f - damping) / static_cast<float>(n);
    std::vector<float> rank(n, 1.0f / static_cast<float>(n)), next(n, 0);
    for (unsigned r = 0; r < rounds; ++r) {
        for (graphs::Node v = 0; v < n; ++v) {
            std::uint64_t deg = g.edgeEnd(v) - g.edgeBegin(v);
            if (deg == 0)
                continue;
            float contrib = damping * rank[v] / static_cast<float>(deg);
            for (std::uint64_t e = g.edgeBegin(v); e < g.edgeEnd(v); ++e)
                next[g.edgeDest(e)] = next[g.edgeDest(e)] + contrib;
        }
        for (graphs::Node v = 0; v < n; ++v) {
            rank[v] = base + next[v];
            next[v] = 0;
        }
    }
    graphs::Node best = 0;
    for (graphs::Node v = 1; v < n; ++v) {
        if (rank[v] > rank[best])
            best = v;
    }
    return best;
}

struct GraphInput
{
    graphs::CsrGraph graph;
    std::unique_ptr<graphs::GraphWorkload> work;
};

Point
graphPoint(const std::string &name, std::shared_ptr<GraphInput> in,
           graphs::GraphKernel kernel)
{
    Point p;
    p.name = name;
    p.sys = makeSystem(graphSystem());
    in->work = std::make_unique<graphs::GraphWorkload>(*p.sys, in->graph,
                                                       graphRun());
    p.sys->resetCounters();
    p.run = [in, kernel](PointResult &r) {
        graphs::GraphRunResult gr = in->work->run(kernel);
        r.simSeconds = gr.seconds;
        r.counters = gr.counters;
        r.demandBytes = gr.counters.demand() * kLineSize;
        r.hasAnswer = true;
        r.answer = gr.answer;
    };
    p.verify = [in, kernel](PointResult &r) {
        r.expectedAnswer =
            kernel == graphs::GraphKernel::Bfs
                ? hostBfsVisited(in->graph)
                : hostPagerankBest(in->graph, graphRun().prRounds);
    };
    g_setupSteps.step();
    return p;
}

std::vector<Point>
setupGraph(std::uint64_t seed)
{
    auto kron = std::make_shared<GraphInput>();
    kron->graph = timedGen([&] {
        graphs::KroneckerParams kp;
        kp.scale = 15;
        kp.edgeFactor = 8;
        kp.seed = deriveSeed(seed, 3);
        return graphs::kronecker(kp);
    });
    auto wdc = std::make_shared<GraphInput>();
    wdc->graph = timedGen([&] {
        graphs::WebGraphParams wp;
        wp.numNodes = 427 * 1024 / 4;
        wp.avgDegree = 36;
        wp.seed = deriveSeed(seed, 4);
        return graphs::webGraph(wp);
    });
    std::vector<Point> pts;
    pts.push_back(
        graphPoint("kron/pagerank", kron, graphs::GraphKernel::PageRank));
    pts.push_back(graphPoint("wdc/bfs", wdc, graphs::GraphKernel::Bfs));
    return pts;
}

// --- dnn_train: Table II, one warm iteration per network and mode ---

constexpr std::uint64_t kDnnScale = 1u << 14;

struct NetCase
{
    const char *name;
    std::uint64_t batch;
};

const NetCase kNets[] = {
    {"inceptionv4", 4096},
    {"resnet200", 2560},
    {"densenet264", 2304},
};

std::vector<Point>
setupDnn(std::uint64_t)
{
    std::vector<Point> pts;
    for (const NetCase &n : kNets) {
        auto g = std::make_shared<dnn::ComputeGraph>(
            timedGen([&] { return dnn::buildNetwork(n.name, n.batch); }));
        dnn::ExecutorConfig ecfg;
        ecfg.threads = 24;

        SystemConfig cfg2;
        cfg2.mode = MemoryMode::TwoLm;
        cfg2.scale = kDnnScale;
        cfg2.scatterPages = true;
        Point two;
        two.name = std::string(n.name) + "/2lm";
        two.sys = makeSystem(cfg2);
        auto ex2 = std::shared_ptr<dnn::Executor>(timedGen([&] {
            return new dnn::Executor(*two.sys, *g, ecfg);
        }));
        ex2->runIteration();
        two.sys->resetCounters();
        g_setupSteps.step();
        two.run = [g, ex2](PointResult &r) {
            dnn::IterationResult ir = ex2->runIteration();
            r.simSeconds = ir.seconds;
            r.counters = ir.counters;
            r.demandBytes = ir.counters.demand() * kLineSize;
        };

        SystemConfig cfg1 = cfg2;
        cfg1.mode = MemoryMode::OneLm;
        Point at;
        at.name = std::string(n.name) + "/autotm";
        at.sys = makeSystem(cfg1);
        dnn::AutoTmConfig acfg;
        acfg.exec = ecfg;
        auto ex1 = std::shared_ptr<dnn::AutoTmExecutor>(timedGen([&] {
            return new dnn::AutoTmExecutor(*at.sys, *g, acfg);
        }));
        ex1->runIteration();
        at.sys->resetCounters();
        g_setupSteps.step();
        at.run = [g, ex1](PointResult &r) {
            dnn::IterationResult ir = ex1->runIteration();
            r.simSeconds = ir.seconds;
            r.counters = ir.counters;
            r.demandBytes = ir.counters.demand() * kLineSize;
        };
        pts.push_back(std::move(two));
        pts.push_back(std::move(at));
    }
    return pts;
}

// --- harness ---

struct Workload
{
    const char *name;
    std::vector<Point> (*setup)(std::uint64_t seed);
};

const Workload kWorkloads[] = {
    {"micro_2lm", setupMicro2lm},
    {"graph", setupGraph},
    {"dnn_train", setupDnn},
    {"queued", setupQueued},
};

/** A fixed CPU-bound loop: the host-speed label of the run. */
double
yardstickMs()
{
    volatile std::uint64_t start = 88172645463325252ull;
    auto t0 = Clock::now();
    std::uint64_t x = start, acc = 0;
    for (int i = 0; i < 20000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += x % 1000003;
    }
    double ms = secondsSince(t0) * 1e3;
    volatile std::uint64_t sink = acc;  // keeps the loop observable
    (void)sink;
    return ms;
}

struct RepResult
{
    double setupSeconds = 0;
    double genSeconds = 0;
    double timedSeconds = 0;
    std::vector<PointResult> points;
    std::vector<double> setupSteps;
    /** Reference samples: before set-up, after every set-up step and
     *  after every point. */
    std::vector<double> ref;
};

RepResult
runRep(const Workload &w, std::uint64_t seed, bool record)
{
    RepResult rep;
    g_genSeconds = 0;
    g_setupSteps.begin();
    std::vector<Point> pts = w.setup(seed);
    g_setupSteps.step();
    g_setupSteps.active = false;
    rep.setupSteps = g_setupSteps.seconds;
    rep.ref = g_setupSteps.ref;
    for (double t : rep.setupSteps)
        rep.setupSeconds += t;
    rep.genSeconds = g_genSeconds;
    for (Point &p : pts) {
        nvramTotals(*p.sys, p.nvBusWrites0, p.nvMediaWriteBlocks0);
        p.sys->llc().resetStats();
    }

    // The timed phase: the points back to back, nothing but their
    // run() inside the clock. timed_s is the sum of the points' times.
    rep.points.resize(pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        trace::setRecording(record);
        trace::beginPoint(pts[i].name);
        auto tp = Clock::now();
        pts[i].run(rep.points[i]);
        rep.points[i].hostSeconds = secondsSince(tp);
        trace::endPoint();
        trace::setRecording(false);
        rep.timedSeconds += rep.points[i].hostSeconds;
        rep.ref.push_back(referenceSample());
    }

    for (std::size_t i = 0; i < pts.size(); ++i) {
        Point &p = pts[i];
        PointResult &r = rep.points[i];
        r.name = p.name;
        r.mode = p.sys->config().mode;
        const Llc &llc = p.sys->llc();
        r.llcHits = llc.hitCount();
        r.llcMisses = llc.missCount();
        r.llcDirtyEvictions = llc.dirtyEvictionCount();
        std::uint64_t bw = 0, mb = 0;
        nvramTotals(*p.sys, bw, mb);
        r.nvBusWrites = bw - p.nvBusWrites0;
        r.nvMediaWriteBlocks = mb - p.nvMediaWriteBlocks0;
        if (p.verify)
            p.verify(r);
    }
    return rep;
}

void
printPoint(const PointResult &r)
{
    std::printf("{\"name\": \"%s\", \"mode\": \"%s\", \"host_s\": %.9f, "
                "\"sim_s\": %.17g, "
                "\"demand_bytes\": %" PRIu64 ", \"offered_gbs\": %.17g, "
                "\"llc_hits\": %" PRIu64 ", \"llc_misses\": %" PRIu64
                ", \"llc_dirty_evictions\": %" PRIu64
                ", \"nv_bus_writes\": %" PRIu64
                ", \"nv_media_write_blocks\": %" PRIu64
                ", \"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64,
                r.name.c_str(),
                r.mode == MemoryMode::TwoLm ? "2lm" : "1lm", r.hostSeconds,
                r.simSeconds, static_cast<std::uint64_t>(r.demandBytes),
                r.offeredGbs, r.llcHits, r.llcMisses,
                r.llcDirtyEvictions, r.nvBusWrites, r.nvMediaWriteBlocks,
                r.p50Ns, r.p99Ns);
    if (r.hasAnswer) {
        std::printf(", \"answer\": %" PRIu64 ", \"expected_answer\": %"
                    PRIu64, r.answer, r.expectedAnswer);
    }
    std::printf(", \"counters\": {");
    const char *sep = "";
    r.counters.forEachField(
        [&](const char *name, const char *, std::uint64_t v) {
            std::printf("%s\"%s\": %" PRIu64, sep, name, v);
            sep = ", ";
        });
    std::printf("}}");
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "micro_2lm|graph|dnn_train|queued --seed N --seconds S "
                 "[--reps R] [--spans FILE]\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const Workload *w = nullptr;
    std::uint64_t seed = 0;
    double seconds = -1;
    int reps = 0;
    std::string spans;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            for (const Workload &c : kWorkloads) {
                if (v == c.name)
                    w = &c;
            }
            if (!w)
                usage(("unknown workload " + v).c_str());
        } else if (a == "--seed") {
            seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("--seed takes a whole number");
        } else if (a == "--seconds") {
            seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || seconds < 0)
                usage("--seconds takes a non-negative number");
        } else if (a == "--reps") {
            reps = std::atoi(v.c_str());
            if (reps < 1)
                usage("--reps takes a positive number");
        } else if (a == "--spans") {
            spans = v;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (!w || seconds < 0)
        usage("--workload and --seconds are required");
    if (!spans.empty() && !trace::available())
        usage("--spans needs the perfbench_traced build");

    // The sweep and shard engines stay at their single-thread default:
    // the benchmark measures one host thread.
    double yard = yardstickMs();
    std::vector<RepResult> results;
    auto start = Clock::now();
    const int min_reps = reps ? reps : 3;
    while (static_cast<int>(results.size()) < min_reps ||
           (!reps && secondsSince(start) < seconds)) {
        results.push_back(runRep(*w, seed, !spans.empty() &&
                                               results.empty()));
    }
    if (!spans.empty())
        trace::writeSpans(spans);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"yardstick_ms\": %.6f, \"nproc\": %ld, "
                "\"peak_rss_mb\": %.6f, \"reps\": [",
                w->name, seed, yard, sysconf(_SC_NPROCESSORS_ONLN),
                static_cast<double>(ru.ru_maxrss) / 1024.0);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RepResult &rep = results[i];
        std::printf("%s{\"setup_s\": %.9f, \"gen_s\": %.9f, "
                    "\"timed_s\": %.9f, ",
                    i ? ", " : "", rep.setupSeconds,
                    rep.genSeconds, rep.timedSeconds);
        auto list = [](const char *key, const std::vector<double> &v) {
            std::printf("\"%s\": [", key);
            for (std::size_t j = 0; j < v.size(); ++j)
                std::printf("%s%.9f", j ? ", " : "", v[j]);
            std::printf("], ");
        };
        list("setup_steps_s", rep.setupSteps);
        list("ref", rep.ref);
        std::printf("\"points\": [");
        for (std::size_t j = 0; j < rep.points.size(); ++j) {
            if (j)
                std::printf(", ");
            printPoint(rep.points[j]);
        }
        std::printf("]}");
    }
    std::printf("]}\n");
    return 0;
}
