#include "obs/telemetry/telemetry.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/logging.hh"
#include "obs/json.hh"

namespace nvsim::obs
{

namespace
{

constexpr std::size_t kF = TelemetryRun::kFields;

std::size_t
fieldIndex(PerfField f)
{
    return static_cast<std::size_t>(f);
}

/** %.9g — compact, deterministic, round-trippable for our ranges. */
std::string
num(double v)
{
    return strprintf("%.9g", v);
}

} // namespace

TelemetryRun::TelemetryRun(std::string label,
                           const TelemetryOptions &opts)
    : label_(std::move(label)),
      window_(opts.windowSeconds),
      windows_(opts.ringWindows)
{
    if (window_ <= 0)
        fatal("telemetry window must be positive (got %g s)", window_);
}

void
TelemetryRun::prime(const PerfCounters *per_channel, unsigned nch)
{
    nch_ = nch;
    snapshots_.assign(static_cast<std::size_t>(nch) * kF, 0);
    for (unsigned c = 0; c < nch; ++c) {
        auto arr = per_channel[c].asArray();
        for (std::size_t f = 0; f < kF; ++f)
            snapshots_[c * kF + f] = arr[f];
    }
}

TelemetryWindow &
TelemetryRun::windowFor(std::int64_t index)
{
    if (!windows_.empty() && windows_.back().index >= index)
        return windows_.back();
    windows_.push(TelemetryWindow{});
    TelemetryWindow &w = windows_.back();
    w.index = index;
    w.perChannel.assign(static_cast<std::size_t>(nch_) * kF, 0.0);
    return w;
}

void
TelemetryRun::onEpoch(double t0, double t1, std::uint64_t demand_bytes,
                      const PerfCounters *per_channel, unsigned nch)
{
    if (nch_ == 0) {
        nch_ = nch;
        snapshots_.assign(static_cast<std::size_t>(nch) * kF, 0);
    } else if (nch != nch_) {
        panic("telemetry: channel count changed mid-run (%u -> %u)",
              nch_, nch);
    }

    // Per-channel counter deltas against this run's own snapshots.
    double chDelta[64 * kF];  // VLA-free scratch; nch is small
    if (nch > 64)
        panic("telemetry: %u channels exceed the scratch bound", nch);
    double allDelta[kF] = {};
    for (unsigned c = 0; c < nch; ++c) {
        auto arr = per_channel[c].asArray();
        for (std::size_t f = 0; f < kF; ++f) {
            std::uint64_t prev = snapshots_[c * kF + f];
            std::uint64_t d = arr[f] - prev;
            snapshots_[c * kF + f] = arr[f];
            totals_[f] += d;
            double dd = static_cast<double>(d);
            chDelta[c * kF + f] = dd;
            allDelta[f] += dd;
        }
    }

    // Split the epoch across the fixed windows it overlaps,
    // proportional to time overlap (fractional-epoch carry).
    double dt = t1 - t0;
    TelemetryWindow *last = nullptr;
    if (dt <= 0) {
        last = &windowFor(
            static_cast<std::int64_t>(std::floor(t1 / window_)));
    } else {
        std::int64_t wi =
            static_cast<std::int64_t>(std::floor(t0 / window_));
        double segStart = t0;
        while (segStart < t1) {
            double wEnd = static_cast<double>(wi + 1) * window_;
            if (wEnd <= segStart) {
                // FP jitter put segStart at/past this window's end.
                ++wi;
                continue;
            }
            double segEnd = std::min(t1, wEnd);
            double frac = (segEnd - segStart) / dt;
            TelemetryWindow &w = windowFor(wi);
            w.activeS += segEnd - segStart;
            w.epochs += frac;
            w.demandBytes += frac * static_cast<double>(demand_bytes);
            for (std::size_t f = 0; f < kF; ++f)
                w.all[f] += frac * allDelta[f];
            for (std::size_t i = 0; i < nch * kF; ++i)
                w.perChannel[i] += frac * chDelta[i];
            last = &w;
            segStart = segEnd;
            ++wi;
        }
        if (!last) {
            last = &windowFor(
                static_cast<std::int64_t>(std::floor(t1 / window_)));
        }
    }

    // Latencies are integral counts: credit them whole to the window
    // containing the epoch's end (where the work was priced).
    if (!pending_.empty()) {
        last->sketch.merge(pending_);
        runSketch_.merge(pending_);
        pending_.clear();
    }
}

void
TelemetryRun::onCountersReset()
{
    // Warmup discard: pre-reset windows, sketches and totals go; the
    // snapshots go back to the zeroed counters.
    windows_.clear();
    std::fill(snapshots_.begin(), snapshots_.end(), 0);
    totals_ = {};
    pending_.clear();
    runSketch_.clear();
    finished_ = false;
}

void
TelemetryRun::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (pending_.empty())
        return;
    // Latencies recorded after the final epoch close (a workload that
    // never quiesced): fold them into the last window.
    TelemetryWindow &w =
        windows_.empty() ? windowFor(0) : windows_.back();
    w.sketch.merge(pending_);
    runSketch_.merge(pending_);
    pending_.clear();
}

bool
TelemetryRun::windowMetric(const TelemetryWindow &w,
                           const std::string &metric, double *out)
{
    auto field = [&](PerfField f) { return w.all[fieldIndex(f)]; };
    double active = w.activeS;
    double lineBytes = 64.0;

    if (metric == "active_s") {
        *out = active;
        return true;
    }
    if (metric == "epochs") {
        *out = w.epochs;
        return true;
    }
    if (metric == "eff_gbs" || metric == "dram_gbs" ||
        metric == "nvram_gbs" || metric == "maint_duty") {
        if (active <= 0)
            return false;
        if (metric == "eff_gbs")
            *out = w.demandBytes / active / 1e9;
        else if (metric == "dram_gbs")
            *out = (field(PerfField::dramRead) +
                    field(PerfField::dramWrite)) *
                   lineBytes / active / 1e9;
        else if (metric == "nvram_gbs")
            *out = (field(PerfField::nvramRead) +
                    field(PerfField::nvramWrite)) *
                   lineBytes / active / 1e9;
        else
            *out = field(PerfField::maintenanceStallNs) * 1e-9 / active;
        return true;
    }
    if (metric == "amplification") {
        double demand = field(PerfField::llcReads) +
                        field(PerfField::llcWrites);
        if (demand <= 0)
            return false;
        *out = (field(PerfField::dramRead) +
                field(PerfField::dramWrite) +
                field(PerfField::nvramRead) +
                field(PerfField::nvramWrite)) /
               demand;
        return true;
    }
    if (metric == "latency_count") {
        *out = static_cast<double>(w.sketch.count());
        return true;
    }
    // Latency distribution metrics need at least one request.
    if (w.sketch.empty())
        return false;
    if (metric == "p50_ns")
        *out = static_cast<double>(w.sketch.quantile(0.5));
    else if (metric == "p90_ns")
        *out = static_cast<double>(w.sketch.quantile(0.9));
    else if (metric == "p99_ns")
        *out = static_cast<double>(w.sketch.quantile(0.99));
    else if (metric == "p999_ns")
        *out = static_cast<double>(w.sketch.quantile(0.999));
    else if (metric == "min_ns")
        *out = static_cast<double>(w.sketch.min());
    else if (metric == "max_ns")
        *out = static_cast<double>(w.sketch.max());
    else if (metric == "mean_ns")
        *out = w.sketch.mean();
    else
        return false;
    return true;
}

bool
TelemetryRun::knownMetric(const std::string &metric)
{
    static const char *kNames[] = {
        "active_s",  "epochs",  "eff_gbs",       "dram_gbs",
        "nvram_gbs", "maint_duty", "amplification", "latency_count",
        "p50_ns",    "p90_ns",  "p99_ns",        "p999_ns",
        "min_ns",    "max_ns",  "mean_ns",
    };
    for (const char *n : kNames) {
        if (metric == n)
            return true;
    }
    return false;
}

TelemetrySession::TelemetrySession(TelemetryOptions opts)
    : opts_(std::move(opts))
{
    if (!opts_.sloSpec.empty())
        slo_ = SloSpec::parse(opts_.sloSpec);
}

TelemetryRun *
TelemetrySession::beginRun(const std::string &label)
{
    if (!enabled())
        return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    runs_.push_back(std::make_unique<TelemetryRun>(label, opts_));
    return runs_.back().get();
}

void
TelemetrySession::finishAll()
{
    for (auto &r : runs_)
        r->finish();
}

namespace
{

/** The "all"-channel derived metrics emitted per window, in order. */
const char *const kDerived[] = {
    "active_s", "epochs",   "eff_gbs", "dram_gbs", "nvram_gbs",
    "amplification", "maint_duty", "latency_count", "p50_ns",
    "p90_ns",   "p99_ns",   "p999_ns", "min_ns",   "max_ns",
    "mean_ns",
};

/** RFC-4180 quoting when a label would break the CSV shape. */
std::string
csvField(const std::string &s)
{
    if (s.find(',') == std::string::npos &&
        s.find('"') == std::string::npos &&
        s.find('\n') == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/** One run's CSV rows (sparse: zero-valued metrics are skipped). */
std::string
csvChunk(const TelemetryRun &run)
{
    std::ostringstream os;
    double win = run.windowSeconds();
    std::string head = csvField(run.label());
    for (const TelemetryWindow &w : run.windows()) {
        std::string prefix =
            head + "," + strprintf("%lld", static_cast<long long>(
                                               w.index)) +
            "," + num(static_cast<double>(w.index) * win) + "," +
            num(static_cast<double>(w.index + 1) * win) + ",";
        for (const char *m : kDerived) {
            double v = 0;
            if (!TelemetryRun::windowMetric(w, m, &v) || v == 0)
                continue;  // sparse
            os << prefix << "all," << m << ',' << num(v) << '\n';
        }
        for (std::size_t f = 0; f < TelemetryRun::kFields; ++f) {
            if (w.all[f] == 0)
                continue;
            os << prefix << "all," << PerfCounters::fieldName(f)
               << ',' << num(w.all[f]) << '\n';
        }
        for (unsigned c = 0; c < run.numChannels(); ++c) {
            for (std::size_t f = 0; f < TelemetryRun::kFields; ++f) {
                double v = w.perChannel[c * TelemetryRun::kFields + f];
                if (v == 0)
                    continue;
                os << prefix << "ch" << c << ','
                   << PerfCounters::fieldName(f) << ',' << num(v)
                   << '\n';
            }
        }
    }
    return os.str();
}

void
jsonLatency(std::ostream &os, const LatencySketch &s)
{
    os << "{\"count\":" << s.count()
       << ",\"min_ns\":" << s.min() << ",\"max_ns\":" << s.max()
       << ",\"sum_ns\":" << s.sum()
       << ",\"mean_ns\":" << num(s.mean())
       << ",\"p50_ns\":" << s.quantile(0.5)
       << ",\"p90_ns\":" << s.quantile(0.9)
       << ",\"p99_ns\":" << s.quantile(0.99)
       << ",\"p999_ns\":" << s.quantile(0.999);
    // The sparse bucket array makes the sketch itself round-trip
    // (LatencySketch::fromSparse), so offline rank diffs are exact.
    os << ",\"sketch\":[";
    bool first = true;
    for (auto [b, c] : s.sparse()) {
        os << (first ? "" : ",") << '[' << b << ',' << c << ']';
        first = false;
    }
    os << "]}";
}

/** One run's JSON object (sans label, which the caller writes). */
std::string
jsonChunk(const TelemetryRun &run, const SloResult *slo)
{
    std::ostringstream os;
    os << "{\"channels\":" << run.numChannels()
       << ",\"window_s\":" << num(run.windowSeconds())
       << ",\"windows_dropped\":" << run.windowsDropped();

    if (!run.provenance().empty())
        os << ",\"config\":" << run.provenance().json();

    os << ",\"totals\":{";
    bool first = true;
    for (std::size_t f = 0; f < TelemetryRun::kFields; ++f) {
        if (run.totals()[f] == 0)
            continue;
        os << (first ? "" : ",") << '"' << PerfCounters::fieldName(f)
           << "\":" << run.totals()[f];
        first = false;
    }
    os << '}';

    os << ",\"latency\":";
    jsonLatency(os, run.runSketch());

    if (slo) {
        os << ",\"slo\":{\"pass\":" << (slo->pass ? "true" : "false")
           << ",\"objectives\":[";
        for (std::size_t i = 0; i < slo->objectives.size(); ++i) {
            const SloObjectiveResult &r = slo->objectives[i];
            os << (i ? "," : "") << "{\"spec\":\""
               << jsonEscape(r.spec) << "\",\"eligible\":" << r.eligible
               << ",\"compliant\":" << r.compliant
               << ",\"worst_value\":" << num(r.worstValue)
               << ",\"worst_window\":" << r.worstWindow
               << ",\"pass\":" << (r.pass ? "true" : "false") << '}';
        }
        os << "]}";
    }

    os << ",\"windows\":[";
    bool firstW = true;
    for (const TelemetryWindow &w : run.windows()) {
        os << (firstW ? "" : ",") << "\n{\"index\":" << w.index
           << ",\"t0\":"
           << num(static_cast<double>(w.index) * run.windowSeconds())
           << ",\"t1\":"
           << num(static_cast<double>(w.index + 1) *
                  run.windowSeconds())
           << ",\"active_s\":" << num(w.activeS)
           << ",\"epochs\":" << num(w.epochs);
        if (w.demandBytes != 0)
            os << ",\"demand_bytes\":" << num(w.demandBytes);
        for (const char *m :
             {"eff_gbs", "dram_gbs", "nvram_gbs", "amplification",
              "maint_duty"}) {
            double v = 0;
            if (TelemetryRun::windowMetric(w, m, &v) && v != 0)
                os << ",\"" << m << "\":" << num(v);
        }
        os << ",\"counters\":{";
        bool firstC = true;
        for (std::size_t f = 0; f < TelemetryRun::kFields; ++f) {
            if (w.all[f] == 0)
                continue;
            os << (firstC ? "" : ",") << '"'
               << PerfCounters::fieldName(f) << "\":" << num(w.all[f]);
            firstC = false;
        }
        os << '}';
        // Per-channel deltas (sparse objects, channel order), so the
        // cross-run diff can attribute a delta to a channel.
        os << ",\"per_channel\":[";
        for (unsigned c = 0; c < run.numChannels(); ++c) {
            os << (c ? "," : "") << '{';
            bool firstF = true;
            for (std::size_t f = 0; f < TelemetryRun::kFields; ++f) {
                double v = w.perChannel[c * TelemetryRun::kFields + f];
                if (v == 0)
                    continue;
                os << (firstF ? "" : ",") << '"'
                   << PerfCounters::fieldName(f) << "\":" << num(v);
                firstF = false;
            }
            os << '}';
        }
        os << ']';
        if (!w.sketch.empty()) {
            os << ",\"latency\":";
            jsonLatency(os, w.sketch);
        }
        os << '}';
        firstW = false;
    }
    os << "\n]}";
    return os.str();
}

} // namespace

void
TelemetrySession::writeFiles(bool from_destructor)
{
    if (written_ || !enabled())
        return;
    written_ = true;
    finishAll();

    // Render every run, then sort by (label, content): the emitted
    // bytes are independent of the order workers finished in, which is
    // what makes --jobs=N output byte-identical to serial.
    struct Rendered
    {
        const TelemetryRun *run;
        std::string csv;
        std::string json;
        SloResult slo;
    };
    std::vector<Rendered> rendered;
    rendered.reserve(runs_.size());
    for (const auto &r : runs_) {
        Rendered out;
        out.run = r.get();
        if (!slo_.empty())
            out.slo = evaluateSlo(slo_, *r);
        out.csv = csvChunk(*r);
        out.json = jsonChunk(*r, slo_.empty() ? nullptr : &out.slo);
        rendered.push_back(std::move(out));
    }
    std::sort(rendered.begin(), rendered.end(),
              [](const Rendered &a, const Rendered &b) {
                  if (a.run->label() != b.run->label())
                      return a.run->label() < b.run->label();
                  return a.csv < b.csv;
              });

    auto open = [&](const std::string &path,
                    std::ofstream &ofs) -> bool {
        ofs.open(path, std::ios::out | std::ios::trunc);
        if (ofs)
            return true;
        if (from_destructor) {
            warn("telemetry: could not open '%s' for writing",
                 path.c_str());
            return false;
        }
        fatal("telemetry: could not open '%s' for writing",
              path.c_str());
    };

    for (const Rendered &r : rendered) {
        if (r.run->windowsDropped() > 0) {
            warn("telemetry: run '%s' evicted %llu windows (ring "
                 "capacity %zu; raise --telemetry-ring=)",
                 r.run->label().c_str(),
                 static_cast<unsigned long long>(
                     r.run->windowsDropped()),
                 opts_.ringWindows);
        }
    }

    if (!opts_.csvPath.empty()) {
        std::ofstream ofs;
        if (open(opts_.csvPath, ofs)) {
            ofs << "run,window,t0,t1,channel,metric,value\n";
            for (const Rendered &r : rendered)
                ofs << r.csv;
            inform("telemetry: wrote windowed series to %s",
                   opts_.csvPath.c_str());
        }
    }

    if (!opts_.jsonPath.empty()) {
        std::ofstream ofs;
        if (open(opts_.jsonPath, ofs)) {
            ofs << "{\"schema\":\"nvsim-telemetry-v1\",\"window_s\":"
                << num(opts_.windowSeconds) << ",\"manifest\":"
                << opts_.manifest.json(opts_.windowSeconds,
                                       "nvsim-telemetry-v1")
                << ",\"runs\":[";
            for (std::size_t i = 0; i < rendered.size(); ++i) {
                if (i)
                    ofs << ',';
                ofs << "\n{\"label\":\""
                    << jsonEscape(rendered[i].run->label())
                    << "\",\"telemetry\":" << rendered[i].json << '}';
            }
            ofs << "\n]}\n";
            inform("telemetry: wrote JSON to %s",
                   opts_.jsonPath.c_str());
        }
    }

    if (!slo_.empty()) {
        for (const Rendered &r : rendered)
            std::fputs(sloReport(r.run->label(), r.slo).c_str(),
                       stdout);
    }
}

} // namespace nvsim::obs
