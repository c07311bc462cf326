#include "obs/observer.hh"

#include <cmath>
#include <sstream>

#include "core/logging.hh"
#include "obs/causal.hh"
#include "obs/telemetry/telemetry.hh"

namespace nvsim::obs
{

const char *
outcomeClassName(CacheOutcome outcome)
{
    switch (outcome) {
      case CacheOutcome::Hit:
        return "tag_hit";
      case CacheOutcome::MissClean:
        return "miss_clean";
      case CacheOutcome::MissDirty:
        return "miss_dirty";
      case CacheOutcome::DdoHit:
        return "ddo_write";
      case CacheOutcome::Uncached:
        return "uncached";
    }
    return "unknown";
}

Observer::Observer(std::string run_label)
    : runLabel_(std::move(run_label))
{
    Group &requests = root().child("requests");
    for (CacheOutcome outcome :
         {CacheOutcome::Hit, CacheOutcome::MissClean,
          CacheOutcome::MissDirty, CacheOutcome::DdoHit,
          CacheOutcome::Uncached}) {
        Group &g = requests.child(outcomeClassName(outcome));
        unsigned i = static_cast<unsigned>(outcome);
        // Load-to-use latency (ns) and device transactions per
        // request. The sketch is exact below 64, so Table I's 1..5
        // device accesses land in exact buckets and "up to 5
        // accesses" is a visible spike.
        latency_[i] = &g.histogram("latency_ns");
        accesses_[i] = &g.histogram("device_accesses");
    }
    dmaRequests_ = &requests.scalar("dma_requests");
}

Observer::~Observer()
{
    // Move the hook out first: it ends up calling setDetachHook({})
    // on this object, which must not destroy the closure mid-call.
    if (detachHook_) {
        std::function<void()> hook = std::move(detachHook_);
        hook();
    }
}

void
Observer::enableCausal(const CausalOptions &opts)
{
    if (causal_)
        return;
    causal_ = std::make_unique<CausalTracer>(opts, tracer_);
    CausalTracer *c = causal_.get();
    Group &g = root().child("causal");
    g.formula("demand_requests",
              [c] { return static_cast<double>(c->demands()); });
    g.formula("sampled_requests",
              [c] { return static_cast<double>(c->sampled()); });
    g.formula("llc_hits",
              [c] { return static_cast<double>(c->llcHits()); });
}

void
Observer::pushContext(const std::string &frame)
{
    if (causal_)
        causal_->pushContext(frame);
}

void
Observer::popContext()
{
    if (causal_)
        causal_->popContext();
}

void
Observer::noteLlcHit()
{
    if (causal_)
        causal_->noteLlcHit();
}

void
Observer::noteRequest(bool demand, CacheOutcome outcome,
                      unsigned device_accesses, double latency_s)
{
    unsigned i = static_cast<unsigned>(outcome);
    if (!demand) {
        dmaRequests_->add();
        accesses_[i]->add(device_accesses);
        return;
    }
    accesses_[i]->add(device_accesses);
    latency_[i]->add(
        static_cast<std::uint64_t>(std::llround(latency_s * 1e9)));
}

void
Observer::noteEpoch(const EpochSample &s)
{
    if (!tracer_)
        return;
    double dt = s.t1 - s.t0;
    if (dt <= 0)
        return;
    const PerfCounters &d = s.delta;
    double line_gbs = static_cast<double>(kLineSize) / dt / 1e9;
    tracer_->span(Track::Epochs, "epoch", s.t0, s.t1,
                  {{"demand_GBps",
                    static_cast<double>(s.demandBytes) / dt / 1e9}});
    tracer_->counter("dram_read_GBps", s.t1,
                     static_cast<double>(d.dramRead) * line_gbs);
    tracer_->counter("dram_write_GBps", s.t1,
                     static_cast<double>(d.dramWrite) * line_gbs);
    tracer_->counter("nvram_read_GBps", s.t1,
                     static_cast<double>(d.nvramRead) * line_gbs);
    tracer_->counter("nvram_write_GBps", s.t1,
                     static_cast<double>(d.nvramWrite) * line_gbs);
    if (s.refresh) {
        // Refresh tracks are only emitted with refresh on, so traces of
        // refresh-off runs are unchanged.
        tracer_->counter("refresh_slots_per_s", s.t1,
                         static_cast<double>(d.refreshSlots) / dt);
        tracer_->counter(
            "maintenance_duty", s.t1,
            static_cast<double>(d.maintenanceStallNs) * 1e-9 / dt);
    }
}

void
Observer::noteDma(double t0, double t1, std::uint64_t bytes)
{
    if (!tracer_)
        return;
    tracer_->span(Track::Dma, "dma copy", t0, t1,
                  {{"bytes", static_cast<double>(bytes)}});
}

void
Observer::kernelSpan(const std::string &name, double t0, double t1)
{
    if (!tracer_)
        return;
    tracer_->span(Track::Kernels, name, t0, t1);
}

void
Observer::onCountersReset(double prior_now)
{
    for (LatencySketch *h : latency_)
        h->clear();
    for (LatencySketch *h : accesses_)
        h->clear();
    if (causal_)
        causal_->onCountersReset();
    if (tracer_)
        tracer_->setTimeBase(tracer_->timeBase() + prior_now);
}

void
Observer::seal()
{
    if (sealed_)
        return;
    sealed_ = true;
    std::ostringstream os;
    registry_.dumpJson(os);
    statsJson_ = os.str();
}

const std::string &
Observer::statsJson()
{
    seal();
    return statsJson_;
}

void
Observer::attachTelemetry(TelemetryRun *tel)
{
    Group &g = root().child("telemetry");
    g.formula("latency_p50_ns",
              [tel] { return double(tel->quantileNs(0.50)); });
    g.formula("latency_p90_ns",
              [tel] { return double(tel->quantileNs(0.90)); });
    g.formula("latency_p99_ns",
              [tel] { return double(tel->quantileNs(0.99)); });
    g.formula("latency_p999_ns",
              [tel] { return double(tel->quantileNs(0.999)); });
}

} // namespace nvsim::obs
