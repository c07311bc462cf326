/**
 * @file
 * Figure 4 reproduction: microbenchmarks on an array 2.2x the size of
 * the DRAM cache (420 GB vs 192 GB on the paper's machine), so the
 * 2LM miss rate is ~100%.
 *
 *  4a: read-only, clean LLC read misses, 24 threads. Paper: effective
 *      ~23 GB/s max (60-76% of the 1LM 30 GB/s), 3x amplification.
 *  4b: write-only nontemporal, dirty LLC write misses, 24 threads.
 *      Paper: effective ~8 GB/s max (72% of 1LM 11 GB/s), two DRAM
 *      writes per store, 5x amplification.
 *  4c: read-modify-write with standard stores, 4 threads: dirty read
 *      miss then a DDO LLC write. Paper: highest NVRAM write bandwidth
 *      of any 2LM benchmark; second tag check elided.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/csv.hh"
#include "exec/sweep.hh"
#include "kernels/kernels.hh"

using namespace nvsim;
using namespace nvsim::bench;

namespace
{

constexpr std::uint64_t kScale = 4096;

struct Scenario
{
    const char *name;
    KernelOp op;
    bool nontemporal;
    bool prime_dirty;
    unsigned threads;
};

const Scenario kScenarios[] = {
    {"4a read-only, clean misses, 24T", KernelOp::ReadOnly, true, false,
     24},
    {"4b write-only NT, dirty misses, 24T", KernelOp::WriteOnly, true,
     true, 24},
    {"4c rmw standard, dirty miss + DDO, 4T",
     KernelOp::ReadModifyWrite, false, true, 4},
};

constexpr std::size_t kPatterns = 2;

AccessPattern
patternOf(std::size_t i)
{
    return i % kPatterns == 0 ? AccessPattern::Sequential
                              : AccessPattern::Random;
}

/** Everything one sweep point reports, buffered for in-order output. */
struct PointResult
{
    std::vector<std::string> tableRow;
    CsvRows csv;
};

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv);
    obs::Session session(opts.obs);
    CsvWriter csv("fig4_2lm_microbench.csv");
    csv.row(std::vector<std::string>{"scenario", "pattern", "metric",
                                     "gbs"});

    banner("Figure 4: 2LM microbenchmarks, array = 2.2x DRAM cache",
           "read miss ~23 GB/s effective w/ 3x amplification; NT "
           "write miss ~8 GB/s w/ 2 DRAM writes per store and 5x "
           "amplification; RMW shows DDO (elided tag checks)");

    // One task per (scenario, pattern) point. Each owns its system and
    // buffers its rows; the collection below replays them in
    // declaration order, so the output is byte-identical for any
    // --jobs=N.
    exec::SweepRunner runner(effectiveJobs(opts, session));
    std::size_t n_points = std::size(kScenarios) * kPatterns;
    std::vector<PointResult> results = runner.map<PointResult>(
        n_points, [&](std::size_t i) {
            const Scenario &s = kScenarios[i / kPatterns];
            AccessPattern pattern = patternOf(i);

            SystemConfig cfg = benchConfig(opts);
            cfg.mode = MemoryMode::TwoLm;
            cfg.scale = kScale;
            auto sys_sys = makeSystem(cfg);
            MemorySystem &sys = *sys_sys;
            Region arr =
                sys.allocate(cfg.dramTotal() * 22 / 10, "array");
            if (s.prime_dirty)
                primeDirty(sys, arr, 8);
            else
                primeClean(sys, arr, 8);
            sys.resetCounters();

            // Attach after priming so the histograms hold the
            // measured kernel only, not the warmup traffic. (With
            // a session enabled the sweep is forced serial, so the
            // begin/end pairs nest correctly.)
            attachRun(session, sys,
                      fmt("%s/%s", s.name, accessPatternName(pattern)));

            KernelConfig k;
            k.op = s.op;
            k.pattern = pattern;
            k.threads = s.threads;
            k.nontemporal = s.nontemporal;
            KernelResult r = runKernel(sys, arr, k);
            session.endRun();

            double ddo_frac =
                r.counters.llcWrites
                    ? static_cast<double>(r.counters.ddoHit) /
                          static_cast<double>(r.counters.llcWrites)
                    : 0.0;
            PointResult res;
            res.tableRow = {accessPatternName(pattern),
                            gbs(r.effectiveBandwidth),
                            gbs(r.dramReadBandwidth()),
                            gbs(r.dramWriteBandwidth()),
                            gbs(r.nvramReadBandwidth()),
                            gbs(r.nvramWriteBandwidth()),
                            fmt("%.2f", r.counters.amplification()),
                            fmt("%.2f", ddo_frac)};
            for (auto [metric, v] :
                 {std::pair<const char *, double>{
                      "effective", r.effectiveBandwidth},
                  {"dram_read", r.dramReadBandwidth()},
                  {"dram_write", r.dramWriteBandwidth()},
                  {"nvram_read", r.nvramReadBandwidth()},
                  {"nvram_write", r.nvramWriteBandwidth()}}) {
                res.csv.row(std::vector<std::string>{
                    s.name, accessPatternName(pattern), metric,
                    fmt("%f", v / 1e9)});
            }
            return res;
        });

    for (std::size_t si = 0; si < std::size(kScenarios); ++si) {
        std::printf("--- %s ---\n", kScenarios[si].name);
        Table t({"pattern", "effective", "DRAM rd", "DRAM wr",
                 "NVRAM rd", "NVRAM wr", "amp", "ddo/writes"});
        for (std::size_t pi = 0; pi < kPatterns; ++pi) {
            const PointResult &res = results[si * kPatterns + pi];
            t.row(res.tableRow);
            res.csv.flushTo(csv);
        }
        t.print();
        std::printf("\n");
    }

    csv.close();
    session.write();  // explicit: I/O failure is fatal, not a warning
    std::printf("series written to fig4_2lm_microbench.csv\n");
    return 0;
}
