/**
 * @file
 * Shared console-table and CSV helpers for the paper-reproduction
 * bench binaries. Every binary prints the rows/series its table or
 * figure reports, plus the paper's qualitative expectation, so the
 * output is self-checking by eye (EXPERIMENTS.md records the
 * comparison).
 */

#ifndef NVSIM_BENCH_COMMON_HH
#define NVSIM_BENCH_COMMON_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/logging.hh"
#include "exec/sweep.hh"
#include "obs/session.hh"
#include "sys/memsys.hh"

namespace nvsim::bench
{

namespace detail
{

/** --flag=value matcher; fatal on an empty value. */
inline bool
matchFlag(const char *arg, const char *flag, std::string *out)
{
    std::size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) != 0)
        return false;
    *out = arg + n;
    if (out->empty())
        fatal("%s needs a value", flag);
    return true;
}

inline std::uint64_t
numberArg(const std::string &value, const char *flag)
{
    char *end = nullptr;
    std::uint64_t v = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0')
        fatal("%s wants a number, got '%s'", flag, value.c_str());
    return v;
}

/**
 * Duration argument: a positive number with an optional s/ms/us/ns
 * suffix (plain numbers are seconds). Returns seconds.
 */
inline double
timeArg(const std::string &value, const char *flag)
{
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str())
        fatal("%s wants a duration, got '%s'", flag, value.c_str());
    std::string unit(end);
    if (unit == "" || unit == "s")
        ;  // seconds
    else if (unit == "ms")
        v *= 1e-3;
    else if (unit == "us")
        v *= 1e-6;
    else if (unit == "ns")
        v *= 1e-9;
    else
        fatal("%s: unknown duration unit '%s' (use s/ms/us/ns)", flag,
              unit.c_str());
    if (v <= 0)
        fatal("%s must be positive, got '%s'", flag, value.c_str());
    return v;
}

/** Real-valued argument (e.g. a z-score threshold). */
inline double
realArg(const std::string &value, const char *flag)
{
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        fatal("%s wants a number, got '%s'", flag, value.c_str());
    return v;
}

/**
 * Flags that cannot change any simulated result — output paths,
 * worker counts, report sizes. They are excluded from the provenance
 * manifest so the same experiment writes byte-identical artifacts at
 * any --jobs=N or output filename.
 */
inline bool
manifestNeutral(const char *arg)
{
    static const char *const kNeutral[] = {
        "--jobs=",          "--stats-json=",  "--stats-prom=",
        "--perfetto=",      "--set-heatmap=", "--causal-trace=",
        "--folded-stacks=", "--telemetry=",   "--telemetry-json=",
        "--anomaly-report=", "--top-sets=",
    };
    for (const char *prefix : kNeutral) {
        if (std::strncmp(arg, prefix, std::strlen(prefix)) == 0)
            return true;
    }
    return false;
}

/** Consume one observability flag; false if @p arg is not one. */
inline bool
parseObsFlag(const char *arg, obs::SessionOptions &opts)
{
    std::string value;
    if (matchFlag(arg, "--stats-json=", &opts.statsJsonPath) ||
        matchFlag(arg, "--stats-prom=", &opts.statsPromPath) ||
        matchFlag(arg, "--perfetto=", &opts.perfettoPath) ||
        matchFlag(arg, "--set-heatmap=", &opts.heatmapPath) ||
        matchFlag(arg, "--causal-trace=", &opts.causalJsonPath) ||
        matchFlag(arg, "--folded-stacks=", &opts.foldedPath)) {
        return true;
    }
    if (matchFlag(arg, "--top-sets=", &value)) {
        opts.topSets =
            static_cast<std::size_t>(numberArg(value, "--top-sets="));
        return true;
    }
    if (matchFlag(arg, "--causal-sample=", &value)) {
        opts.causalSamplePeriod = numberArg(value, "--causal-sample=");
        if (opts.causalSamplePeriod == 0)
            fatal("--causal-sample= must be >= 1");
        return true;
    }
    if (matchFlag(arg, "--causal-seed=", &value)) {
        opts.causalSeed = numberArg(value, "--causal-seed=");
        return true;
    }
    if (matchFlag(arg, "--telemetry=", &opts.telemetry.csvPath) ||
        matchFlag(arg, "--telemetry-json=", &opts.telemetry.jsonPath) ||
        matchFlag(arg, "--slo=", &opts.telemetry.sloSpec)) {
        return true;
    }
    if (matchFlag(arg, "--telemetry-window=", &value)) {
        opts.telemetry.windowSeconds =
            timeArg(value, "--telemetry-window=");
        return true;
    }
    if (matchFlag(arg, "--telemetry-ring=", &value)) {
        opts.telemetry.ringWindows = static_cast<std::size_t>(
            numberArg(value, "--telemetry-ring="));
        return true;
    }
    if (matchFlag(arg, "--anomaly-report=",
                  &opts.telemetry.anomalyJsonPath)) {
        return true;
    }
    if (matchFlag(arg, "--anomaly-z=", &value)) {
        opts.telemetry.anomalyZ = realArg(value, "--anomaly-z=");
        if (opts.telemetry.anomalyZ <= 0)
            fatal("--anomaly-z= must be positive");
        return true;
    }
    return false;
}

} // namespace detail

/** Options shared by every bench binary. */
struct BenchOptions
{
    obs::SessionOptions obs;
    /** Sweep worker threads; 0 = hardware concurrency, 1 = serial. */
    unsigned jobs = 0;
    /** Use the reference per-line access engine instead of batching. */
    bool perLine = false;
    /** --config= path; empty = use the bench's built-in defaults. */
    std::string configPath;
};

/** The flag summary printed when an argument is rejected. */
inline const char *
benchUsage()
{
    return "flags:\n"
           "  --config=FILE       declarative SystemConfig JSON; the\n"
           "                      bench's built-in defaults otherwise\n"
           "  --jobs=N            run sweep points on N worker threads\n"
           "                      (default: hardware concurrency;\n"
           "                      output is byte-identical for any N)\n"
           "  --per-line          reference per-line access engine\n"
           "                      (diagnostics; identical, slower)\n"
           "  --stats-json=FILE   hierarchical stats registry as JSON\n"
           "  --stats-prom=FILE   same registry, Prometheus text\n"
           "  --perfetto=FILE     Chrome-trace JSON (ui.perfetto.dev)\n"
           "  --set-heatmap=FILE  per-set DRAM cache conflict CSV\n"
           "  --top-sets=N        hottest-set report size (default 16)\n"
           "  --causal-trace=FILE per-request causal attribution JSON\n"
           "  --folded-stacks=FILE folded flamegraph lines\n"
           "  --causal-sample=N   sample 1-in-N requests (default 64)\n"
           "  --causal-seed=S     sampling/reservoir seed (default 1)\n"
           "  --telemetry=FILE    windowed counter/rate time-series CSV\n"
           "                      (does not force serial execution)\n"
           "  --telemetry-json=FILE nvsim-telemetry-v1 JSON (totals,\n"
           "                      latency percentiles, windows, SLO)\n"
           "  --telemetry-window=T window length; s/ms/us/ns suffix\n"
           "                      (default 1ms)\n"
           "  --telemetry-ring=N  windows kept per run, 0 = unbounded\n"
           "                      (default 4096; oldest evicted first)\n"
           "  --slo=SPEC          objectives, e.g.\n"
           "                      'p99_ns<2000;eff_gbs>10@95%'; the\n"
           "                      report prints PASS/FAIL per run\n"
           "  --anomaly-report=FILE per-window anomaly detector\n"
           "                      firings as nvsim-anomaly-v1 JSON\n"
           "  --anomaly-z=Z       robust z-score firing threshold\n"
           "                      (default 6.0)";
}

/**
 * Parse the flags every bench shares — observability collection
 * (opt-in; with no flags the Session is disabled and output is
 * bit-identical to a flagless build), the sweep-engine flags
 * (--jobs=N, --per-line), and --config=FILE for a declarative
 * SystemConfig (see benchConfig()). Unknown arguments are fatal with
 * the full usage text, so typos never silently run with defaults.
 *
 * Also applies the engine selection process-wide so every
 * MemorySystem the bench builds uses the requested engine.
 */
inline BenchOptions
parseBenchArgs(int &argc, char **argv, bool keep_unknown)
{
    BenchOptions opts;
    obs::RunManifest &man = opts.obs.telemetry.manifest;
    if (argc > 0 && argv[0]) {
        const char *slash = std::strrchr(argv[0], '/');
        man.bench = slash ? slash + 1 : argv[0];
    }
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        std::string value;
        bool known = true;
        if (detail::parseObsFlag(arg, opts.obs)) {
        } else if (detail::matchFlag(arg, "--config=",
                                     &opts.configPath)) {
        } else if (detail::matchFlag(arg, "--jobs=", &value)) {
            opts.jobs = static_cast<unsigned>(
                detail::numberArg(value, "--jobs="));
            if (opts.jobs == 0)
                fatal("--jobs= must be >= 1");
        } else if (std::strcmp(arg, "--per-line") == 0) {
            opts.perLine = true;
        } else {
            known = false;
        }
        if (!known) {
            if (!keep_unknown)
                fatal("unknown argument '%s'\n%s", arg, benchUsage());
            argv[kept++] = argv[i];
            continue;
        }
        // Provenance: record the flags that can change results;
        // result-neutral ones (outputs, --jobs=) would break the
        // byte-identical-at-any-jobs guarantee.
        if (!detail::manifestNeutral(arg))
            man.flags.push_back(arg);
    }
    if (keep_unknown) {
        argc = kept;
        argv[argc] = nullptr;
    }
    man.causalSeed = opts.obs.causalSeed;
    man.readEnvironment();
    MemorySystem::setBatchedAccessDefault(!opts.perLine);
    return opts;
}

inline BenchOptions
parseBenchOptions(int argc, char **argv)
{
    return parseBenchArgs(argc, argv, false);
}

/**
 * parseBenchOptions for binaries that share argv with another flag
 * parser (the google-benchmark suite): consumes every nvsim flag,
 * compacts argv in place to the remaining arguments, and updates
 * @p argc — pass the compacted argv on to benchmark::Initialize().
 */
inline BenchOptions
parseBenchOptionsPartial(int &argc, char **argv)
{
    return parseBenchArgs(argc, argv, true);
}

/**
 * The SystemConfig a bench should start from: the file named by
 * --config= when given (unknown keys fatal), else @p defaults. The
 * bench applies its workload-defining fields (mode, scale, sizing) on
 * top of the returned config, so a config file customizes the platform
 * while the bench still measures what its name says.
 */
inline SystemConfig
benchConfig(const BenchOptions &opts, const SystemConfig &defaults = {})
{
    if (opts.configPath.empty())
        return defaults;
    return SystemConfig::fromJsonFile(opts.configPath);
}

/**
 * Worker count a sweep should actually use: the requested --jobs
 * (hardware concurrency when unset), forced to 1 when Observer-based
 * collection is on — the obs Session serializes those runs on one
 * timeline. Telemetry-only sessions keep full parallelism (runs are
 * independent and the export is order-normalized).
 */
inline unsigned
effectiveJobs(const BenchOptions &opts, const obs::Session &session)
{
    unsigned jobs = opts.jobs ? opts.jobs : exec::hardwareJobs();
    if (session.serialRequired() && jobs > 1) {
        inform("observability session enabled: running sweep serially "
               "(--jobs=%u ignored)",
               jobs);
        jobs = 1;
    }
    return jobs;
}

/**
 * Begin observing @p label and attach the observer and/or telemetry
 * collector to @p sys — the begin/attach boilerplate every bench run
 * repeats. Either may be null (its flags off); with no flags at all
 * both are and the run is untouched.
 */
inline obs::Observer *
attachRun(obs::Session &session, MemorySystem &sys,
          const std::string &label)
{
    obs::Observer *o = session.beginRun(label);
    if (o)
        sys.attachObserver(o);
    if (obs::TelemetryRun *tel = session.beginTelemetryRun(label))
        sys.attachTelemetry(tel);
    return o;
}

/** Banner with the experiment id and the paper's expectation. */
inline void
banner(const std::string &title, const std::string &expectation)
{
    std::printf("\n=== %s ===\n", title.c_str());
    if (!expectation.empty())
        std::printf("paper expectation: %s\n", expectation.c_str());
    std::printf("\n");
}

/** Simple aligned console table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {
    }

    void
    row(std::vector<std::string> fields)
    {
        rows_.push_back(std::move(fields));
    }

    void
    print() const
    {
        std::vector<std::size_t> width(headers_.size());
        for (std::size_t c = 0; c < headers_.size(); ++c)
            width[c] = headers_[c].size();
        for (const auto &r : rows_) {
            for (std::size_t c = 0; c < r.size() && c < width.size();
                 ++c)
                width[c] = std::max(width[c], r[c].size());
        }
        auto print_row = [&](const std::vector<std::string> &r) {
            for (std::size_t c = 0; c < headers_.size(); ++c) {
                const std::string &f = c < r.size() ? r[c] : "";
                std::printf("%-*s  ", static_cast<int>(width[c]),
                            f.c_str());
            }
            std::printf("\n");
        };
        print_row(headers_);
        std::size_t total = 0;
        for (std::size_t c = 0; c < headers_.size(); ++c)
            total += width[c] + 2;
        std::printf("%s\n", std::string(total, '-').c_str());
        for (const auto &r : rows_)
            print_row(r);
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** printf into a std::string (bench-local convenience). */
inline std::string
fmt(const char *f, ...)
{
    // Size with a first pass so long fields (graph names, paths) are
    // never silently truncated.
    va_list ap;
    va_start(ap, f);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, f, ap2);
    va_end(ap2);
    if (n < 0) {
        va_end(ap);
        return "<format error>";
    }
    std::string out(static_cast<std::size_t>(n), '\0');
    std::vsnprintf(out.data(), out.size() + 1, f, ap);
    va_end(ap);
    return out;
}

/** Format bytes as GB with 1 decimal. */
inline std::string
gb(double bytes)
{
    return fmt("%.2f", bytes / 1e9);
}

/** Format a bandwidth in GB/s with 2 decimals. */
inline std::string
gbs(double bytes_per_sec)
{
    return fmt("%.2f", bytes_per_sec / 1e9);
}

} // namespace nvsim::bench

#endif // NVSIM_BENCH_COMMON_HH
