#include "obs/session.hh"

#include <cstdio>
#include <fstream>

#include <sstream>

#include "core/logging.hh"
#include "obs/causal.hh"
#include "obs/diff/anomaly.hh"
#include "obs/json.hh"

namespace nvsim::obs
{

namespace
{

/** Strip trailing whitespace so raw JSON embeds cleanly inline. */
std::string
rstrip(std::string s)
{
    while (!s.empty() &&
           (s.back() == '\n' || s.back() == '\r' || s.back() == ' '))
        s.pop_back();
    return s;
}

} // namespace

Session::Session(SessionOptions opts)
    : opts_(std::move(opts)), telSession_(opts_.telemetry)
{
    if (!opts_.perfettoPath.empty()) {
        tracer_.nameTrack(Track::Runs, "runs");
        tracer_.nameTrack(Track::Epochs, "epochs");
        tracer_.nameTrack(Track::Kernels, "kernels");
        tracer_.nameTrack(Track::Dma, "dma");
        if (opts_.causal()) {
            tracer_.nameTrack(Track::CausalDemand, "causal demand");
            tracer_.nameTrack(Track::CausalDevices, "causal devices");
        }
        if (opts_.telemetry.any())
            tracer_.nameTrack(Track::Anomalies, "anomalies");
    }
}

Session::~Session()
{
    endRun();
    writeFiles(true);
}

Observer *
Session::beginRun(const std::string &label)
{
    // Telemetry-only sessions run parallel sweeps; a shared Observer
    // would race, so only serial (observer-output) sessions get one.
    if (!opts_.any())
        return nullptr;
    endRun();
    current_ = std::make_unique<Observer>(label);
    if (!opts_.heatmapPath.empty())
        current_->enableHeatmap();
    if (!opts_.perfettoPath.empty()) {
        // Each run's simulated clock starts at zero; lay runs end to
        // end on the shared timeline.
        runStart_ = tracer_.horizon();
        tracer_.setTimeBase(runStart_);
        current_->setTracer(&tracer_);
    }
    if (opts_.causal()) {
        CausalOptions copts;
        copts.samplePeriod = opts_.causalSamplePeriod;
        copts.seed = opts_.causalSeed;
        copts.flowIdBase = nextFlowId_;
        current_->enableCausal(copts);
    }
    return current_.get();
}

TelemetryRun *
Session::beginTelemetryRun(const std::string &label)
{
    TelemetryRun *tel = telSession_.beginRun(label);
    if (!tel)
        return nullptr;
    // In serial mode the open Observer exports the run's summary
    // quantiles as stats, and endRun() renders the windows onto the
    // Perfetto timeline. In parallel mode workers own their runs
    // privately; the session only touches them at write time.
    if (current_ && current_->runLabel() == label) {
        current_->attachTelemetry(tel);
        currentTel_ = tel;
    }
    return tel;
}

void
Session::endRun()
{
    if (!current_)
        return;
    if (currentTel_) {
        currentTel_->finish();
        if (!opts_.perfettoPath.empty()) {
            // One counter sample per window, stamped at window end on
            // the run's own time base (still set from beginRun()).
            double w = currentTel_->windowSeconds();
            for (const TelemetryWindow &win : currentTel_->windows()) {
                double t = static_cast<double>(win.index + 1) * w;
                double v = 0;
                if (TelemetryRun::windowMetric(win, "eff_gbs", &v))
                    tracer_.counter("tel_eff_GBps", t, v);
                if (TelemetryRun::windowMetric(win, "p99_ns", &v))
                    tracer_.counter("tel_p99_ns", t, v);
            }
            // Detector firings as instants at the window end, so a
            // throttle onset or refresh storm is visible in the UI
            // next to the counter track that moved.
            AnomalyOptions aopts;
            aopts.z = opts_.telemetry.anomalyZ;
            AnomalyReport report =
                detectAnomalies(*currentTel_, aopts);
            for (const Anomaly &a : report.anomalies) {
                double t = static_cast<double>(a.window + 1) * w;
                tracer_.instant(Track::Anomalies,
                                "anomaly:" + a.metric, t);
            }
        }
        currentTel_ = nullptr;
    }
    current_->seal();
    buildInfo_.emplace_back(current_->runLabel(),
                            current_->provenance());
    runsJson_.emplace_back(current_->runLabel(),
                           rstrip(current_->statsJson()));
    mergePrometheus(promFamilies_, current_->promFamilies());
    if (const CausalTracer *causal = current_->causal()) {
        causal->foldedLines(foldedLines_, current_->runLabel());
        std::ostringstream os;
        causal->dumpJson(os);
        causalRuns_.emplace_back(current_->runLabel(), os.str());
        nextFlowId_ += causal->flowsEmitted();
    }
    if (const SetProfiler *prof = current_->setProfiler()) {
        prof->appendCsvRows(current_->runLabel(), heatRows_);
        if (opts_.topSets > 0)
            std::fputs(prof->report(opts_.topSets).c_str(), stdout);
    }
    if (!opts_.perfettoPath.empty()) {
        double end = tracer_.horizon();
        if (end > runStart_) {
            double base = tracer_.timeBase();
            tracer_.setTimeBase(0);
            tracer_.span(Track::Runs, current_->runLabel(), runStart_,
                         end);
            tracer_.setTimeBase(base);
        }
    }
    // Keep the sealed observer alive: a MemorySystem still attached to
    // it may detach (a sealed no-op) from its destructor later.
    done_.push_back(std::move(current_));
}

void
Session::write()
{
    endRun();
    writeFiles(false);
}

void
Session::writeFiles(bool from_destructor)
{
    if (written_ || !enabled())
        return;
    written_ = true;

    telSession_.writeFiles(from_destructor);
    if (!opts_.any())
        return;

    auto open = [&](const std::string &path,
                    std::ofstream &ofs) -> bool {
        ofs.open(path, std::ios::out | std::ios::trunc);
        if (ofs)
            return true;
        if (from_destructor) {
            warn("obs: could not open '%s' for writing", path.c_str());
            return false;
        }
        fatal("obs: could not open '%s' for writing", path.c_str());
    };

    if (!opts_.statsJsonPath.empty()) {
        std::ofstream ofs;
        if (open(opts_.statsJsonPath, ofs)) {
            ofs << "{\"schema\":\"nvsim-stats-v1\",\"runs\":[";
            for (std::size_t i = 0; i < runsJson_.size(); ++i) {
                if (i > 0)
                    ofs << ',';
                ofs << "\n{\"label\":\""
                    << jsonEscape(runsJson_[i].first)
                    << "\",\"stats\":" << runsJson_[i].second << '}';
            }
            ofs << "\n]}\n";
            inform("obs: wrote stats JSON to %s",
                   opts_.statsJsonPath.c_str());
        }
    }

    if (!opts_.statsPromPath.empty()) {
        std::ofstream ofs;
        if (open(opts_.statsPromPath, ofs)) {
            // Info-style provenance gauge: value is the constant 1,
            // the payload is the labels (Prometheus convention for
            // build/version metadata; prom_lint.py checks the shape).
            const RunManifest &m = opts_.telemetry.manifest;
            PromFamily info;
            info.name = "nvsim_build_info";
            info.type = "gauge";
            info.help = "run provenance manifest (constant 1; the "
                        "payload is the labels)";
            for (const auto &[label, digest] : buildInfo_) {
                PromSample s;
                s.name = info.name;
                s.labels = strprintf(
                    "run=\"%s\",bench=\"%s\",config_hash=\"%s\","
                    "mode=\"%s\",scale=\"%llu\",seed=\"%llu\","
                    "schema=\"%s\"",
                    promEscapeLabel(label).c_str(),
                    promEscapeLabel(m.bench).c_str(),
                    promEscapeLabel(digest.hash).c_str(),
                    promEscapeLabel(digest.mode).c_str(),
                    static_cast<unsigned long long>(digest.scale),
                    static_cast<unsigned long long>(m.causalSeed),
                    RunManifest::kSchema);
                s.value = 1;
                info.samples.push_back(std::move(s));
            }
            std::vector<PromFamily> families;
            if (!info.samples.empty())
                families.push_back(std::move(info));
            mergePrometheus(families, promFamilies_);
            renderPrometheus(families, ofs);
            inform("obs: wrote Prometheus text to %s",
                   opts_.statsPromPath.c_str());
        }
    }

    if (!opts_.perfettoPath.empty()) {
        std::ofstream ofs;
        if (open(opts_.perfettoPath, ofs)) {
            tracer_.setMetadataJson(opts_.telemetry.manifest.json(
                opts_.telemetry.windowSeconds, "nvsim-telemetry-v1"));
            tracer_.writeJson(ofs);
            if (tracer_.dropped() > 0)
                warn("obs: trace event cap reached; dropped %zu events",
                     tracer_.dropped());
            inform("obs: wrote trace to %s (load in ui.perfetto.dev)",
                   opts_.perfettoPath.c_str());
        }
    }

    if (!opts_.heatmapPath.empty()) {
        std::ofstream ofs;
        if (open(opts_.heatmapPath, ofs)) {
            ofs << "run,set,hits,misses,evictions\n";
            for (const std::string &row : heatRows_)
                ofs << row << '\n';
            inform("obs: wrote set heatmap to %s",
                   opts_.heatmapPath.c_str());
        }
    }

    if (!opts_.causalJsonPath.empty()) {
        std::ofstream ofs;
        if (open(opts_.causalJsonPath, ofs)) {
            ofs << "{\"schema\":\"nvsim-causal-v1\",\"sample_period\":"
                << opts_.causalSamplePeriod
                << ",\"seed\":" << opts_.causalSeed << ",\"runs\":[";
            for (std::size_t i = 0; i < causalRuns_.size(); ++i) {
                if (i > 0)
                    ofs << ',';
                ofs << "\n{\"label\":\""
                    << jsonEscape(causalRuns_[i].first)
                    << "\",\"causal\":" << causalRuns_[i].second
                    << '}';
            }
            ofs << "\n]}\n";
            inform("obs: wrote causal attribution to %s",
                   opts_.causalJsonPath.c_str());
        }
    }

    if (!opts_.foldedPath.empty()) {
        std::ofstream ofs;
        if (open(opts_.foldedPath, ofs)) {
            for (const std::string &line : foldedLines_)
                ofs << line << '\n';
            inform("obs: wrote folded stacks to %s "
                   "(render with scripts/plot_traces.py)",
                   opts_.foldedPath.c_str());
        }
    }
}

} // namespace nvsim::obs
