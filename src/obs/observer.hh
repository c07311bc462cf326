/**
 * @file
 * Observer: the per-run hub of the observability layer.
 *
 * A MemorySystem runs unobserved by default — every hook is a single
 * null-pointer test, so with no observer attached the simulation's
 * outputs are bit-identical to a build without this subsystem. When a
 * bench opts in (bench_common.hh flags), an Observer is attached and
 * collects:
 *
 *  - a hierarchical stats Registry (obs/stats.hh) the system's
 *    components register into (LLC, per-channel IMC counters, DRAM
 *    cache, DRAM/NVRAM devices);
 *  - per-request latency and device-access-count histograms keyed by
 *    outcome class (tag hit / clean miss / dirty miss / DDO write /
 *    uncached) — Table I as a distribution instead of a mean;
 *  - optional Chrome-trace/Perfetto events: epoch and kernel spans,
 *    DMA transfers (obs/perfetto.hh).
 *
 * Lifecycle: one Observer per observed run. The registry's formula
 * stats read live component state, so the owner must seal() (render)
 * the registry before the observed MemorySystem is destroyed; the
 * MemorySystem does this from its destructor as a backstop.
 */

#ifndef NVSIM_OBS_OBSERVER_HH
#define NVSIM_OBS_OBSERVER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "imc/counters.hh"
#include "mem/request.hh"
#include "obs/perfetto.hh"
#include "obs/stats.hh"

namespace nvsim::obs
{

class CausalTracer;
struct CausalOptions;
class TelemetryRun;

/** One epoch's sample, delivered at each epoch boundary. */
struct EpochSample
{
    double t0 = 0;  //!< epoch start (simulated seconds)
    double t1 = 0;  //!< epoch end
    std::uint64_t demandBytes = 0;
    /** DRAM refresh is on (its counter tracks are emitted). */
    bool refresh = false;
    /** System-wide counter deltas over the epoch. */
    PerfCounters delta;
};

/** Per-run observability hub. */
class Observer
{
  public:
    explicit Observer(std::string run_label = "");

    /** Unwires from a still-attached MemorySystem (detach hook). */
    ~Observer();

    Observer(const Observer &) = delete;
    Observer &operator=(const Observer &) = delete;

    const std::string &runLabel() const { return runLabel_; }

    /** @name Wiring (done by MemorySystem::attachObserver) */
    ///@{
    Registry &registry() { return registry_; }
    const Registry &registry() const { return registry_; }
    Group &root() { return registry_.root(); }

    /** Attach a (session-owned) trace collector; may stay null. */
    void setTracer(PerfettoTracer *tracer) { tracer_ = tracer; }
    PerfettoTracer *tracer() { return tracer_; }

    /**
     * Create the per-request causal tracer (obs/causal.hh). Call
     * after setTracer() so exemplar flow events reach the session
     * timeline; registers the tracer's totals under the registry's
     * "causal" group.
     */
    void enableCausal(const CausalOptions &opts);
    CausalTracer *causal() { return causal_.get(); }
    const CausalTracer *causal() const { return causal_.get(); }

    /**
     * Register the telemetry run's summary quantiles as gauge
     * formulas under the registry's "telemetry" group, so the latency
     * sketch shows up in the stats JSON. @p tel must outlive seal().
     */
    void attachTelemetry(TelemetryRun *tel);

    /**
     * Callback run from the destructor while this Observer is still
     * attached, so a system outliving its observer drops its pointers
     * (the attached MemorySystem installs detachObserver() here and
     * clears it again when it detaches first).
     */
    void setDetachHook(std::function<void()> fn)
    {
        detachHook_ = std::move(fn);
    }
    ///@}

    /** @name Hot-path hooks */
    ///@{
    /**
     * One IMC request resolved. @p demand distinguishes CPU demand
     * requests (latency histogram meaningful) from DMA-engine traffic.
     */
    void noteRequest(bool demand, CacheOutcome outcome,
                     unsigned device_accesses, double latency_s);

    void noteEpoch(const EpochSample &sample);
    void noteDma(double t0, double t1, std::uint64_t bytes);

    /** A named workload span (microbench kernel, DNN op). */
    void kernelSpan(const std::string &name, double t0, double t1);

    /** @name Causal-context forwarding (no-ops without a tracer) */
    ///@{
    void pushContext(const std::string &frame);
    void popContext();
    /** An LLC hit absorbed a demand access before the IMC. */
    void noteLlcHit();
    ///@}

    /**
     * The observed system reset its counters and clock (post-warmup):
     * drop warmup histogram samples and shift the trace time
     * base so post-reset events stay ordered after pre-reset ones.
     */
    void onCountersReset(double prior_now);
    ///@}

    /**
     * Render the registry (formulas read live component state) into
     * a cached JSON string. Idempotent; must run before the observed
     * system is destroyed.
     */
    void seal();
    bool sealed() const { return sealed_; }

    /** Rendered registry; seals on first use. */
    const std::string &statsJson();

  private:
    std::string runLabel_;
    Registry registry_;
    PerfettoTracer *tracer_ = nullptr;  //!< not owned; may be null
    std::unique_ptr<CausalTracer> causal_;
    std::function<void()> detachHook_;

    /** Indexed by CacheOutcome; owned by the registry. */
    LatencySketch *latency_[5] = {};
    LatencySketch *accesses_[5] = {};
    Scalar *dmaRequests_ = nullptr;

    bool sealed_ = false;
    std::string statsJson_;
};

/** Stats-group name of an outcome class. */
const char *outcomeClassName(CacheOutcome outcome);

/**
 * RAII causal-context frame: names the workload region (kernel, DNN
 * op, graph kernel) that owns the demand requests issued inside it.
 * Null-safe: pass the current observer (or nullptr) and the scope is
 * free when tracing is off.
 */
class ContextScope
{
  public:
    ContextScope(Observer *o, const std::string &frame) : o_(o)
    {
        if (o_)
            o_->pushContext(frame);
    }

    ~ContextScope()
    {
        if (o_)
            o_->popContext();
    }

    ContextScope(const ContextScope &) = delete;
    ContextScope &operator=(const ContextScope &) = delete;

  private:
    Observer *o_;
};

} // namespace nvsim::obs

#endif // NVSIM_OBS_OBSERVER_HH
