/**
 * @file
 * Session: multi-run observability collection and file output for the
 * bench binaries.
 *
 * A bench typically constructs several MemorySystems (one per
 * scenario/pattern/thread-count). A Session hands out one Observer
 * per run, lays the runs end to end on a single Perfetto timeline,
 * and accumulates per-run stats snapshots. At destruction (or an
 * explicit write()) it emits the files the user asked for:
 *
 *   --stats-json=F    {"runs":[{"label":..,"stats":{..}},..]}
 *   --perfetto=F      Chrome-trace JSON; open in ui.perfetto.dev
 *
 * The session also owns the telemetry engine's per-run collectors
 * (--telemetry= / --telemetry-json= / --slo=, see
 * obs/telemetry/telemetry.hh); unlike the Observer outputs these do
 * not force serial execution.
 *
 * With no option set the session is disabled: beginRun() returns
 * nullptr and nothing is collected or written.
 */

#ifndef NVSIM_OBS_SESSION_HH
#define NVSIM_OBS_SESSION_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/observer.hh"
#include "obs/perfetto.hh"
#include "obs/telemetry/telemetry.hh"

namespace nvsim::obs
{

/** Output selection, typically parsed from bench argv. */
struct SessionOptions
{
    std::string statsJsonPath;
    std::string perfettoPath;

    /** @name Causal tracing (obs/causal.hh) */
    ///@{
    std::string causalJsonPath;  //!< --causal-trace= attribution JSON
    std::string foldedPath;      //!< --folded-stacks= flamegraph input
    std::uint64_t causalSamplePeriod = 64;  //!< --causal-sample=
    ///@}

    /** Telemetry engine outputs (obs/telemetry/telemetry.hh). */
    TelemetryOptions telemetry;

    bool
    causal() const
    {
        return !causalJsonPath.empty() || !foldedPath.empty();
    }

    /**
     * Any Observer-based output requested. These force serial
     * execution (one Observer, one Perfetto timeline); telemetry
     * alone does not (see Session::serialRequired()).
     */
    bool
    any() const
    {
        return !statsJsonPath.empty() || !perfettoPath.empty() ||
               causal();
    }

    /** Any output at all (observer or telemetry). */
    bool anyOutput() const { return any() || telemetry.any(); }
};

/** Multi-run collection session. */
class Session
{
  public:
    explicit Session(SessionOptions opts);

    /** Ends an open run and writes the output files (warn-only). */
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    bool enabled() const { return opts_.anyOutput(); }

    /**
     * Do the requested outputs force serial execution? Observer-based
     * collection does (a shared Perfetto timeline, live formula
     * stats); telemetry-only sessions keep --jobs=N parallelism (runs
     * are independent and the export is order-normalized).
     */
    bool serialRequired() const { return opts_.any(); }

    /**
     * Start observing a run. Returns the Observer to attach to the
     * run's MemorySystem, or nullptr when no observer output was
     * requested (callers need no flag checks). An open run is ended
     * first.
     */
    Observer *beginRun(const std::string &label);

    /**
     * Start the telemetry collector for one run; nullptr when
     * telemetry is off. Thread-safe (parallel sweep workers call this
     * concurrently). When an Observer run with the same label is open,
     * the run's summary quantiles are also registered as stats.
     */
    TelemetryRun *beginTelemetryRun(const std::string &label);

    /**
     * Snapshot the current run's Observer. Must be called while the
     * observed MemorySystem is still alive (the registry's formulas
     * read its state). The sealed Observer stays owned by the session
     * until destruction, so a system that is still attached to it can
     * safely be destroyed afterwards.
     */
    void endRun();

    /** Write all requested files; fatal() on I/O failure. Idempotent. */
    void write();

  private:
    void writeFiles(bool from_destructor);

    SessionOptions opts_;
    std::unique_ptr<Observer> current_;
    std::vector<std::unique_ptr<Observer>> done_;  //!< sealed past runs
    TelemetrySession telSession_;
    TelemetryRun *currentTel_ = nullptr;  //!< only set in serial mode
    PerfettoTracer tracer_;
    double runStart_ = 0;  //!< absolute start time of the open run

    std::vector<std::pair<std::string, std::string>> runsJson_;
    std::vector<std::pair<std::string, std::string>> causalRuns_;
    std::vector<std::string> foldedLines_;
    std::uint64_t nextFlowId_ = 1;  //!< flow ids unique across runs
    bool written_ = false;
};

} // namespace nvsim::obs

#endif // NVSIM_OBS_SESSION_HH
