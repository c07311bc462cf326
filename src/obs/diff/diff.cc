#include "obs/diff/diff.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>

#include "core/logging.hh"
#include "obs/json.hh"

namespace nvsim::obs
{

namespace
{

constexpr std::size_t kF = kNumPerfFields;

std::string
num(double v)
{
    return strprintf("%.9g", v);
}

/** Derived per-window rates compared under the noise threshold. */
const char *const kDerivedDiff[] = {
    "eff_gbs", "dram_gbs", "nvram_gbs", "amplification",
    "maint_duty", "p50_ns", "p99_ns",
};

/** Run-level latency ranks compared exactly (bucket resolution). */
const char *const kRanks[] = {
    "min_ns", "p50_ns", "p90_ns", "p99_ns", "p999_ns", "max_ns",
};

std::uint64_t
rankValue(const LatencySketch &s, const char *rank)
{
    if (std::strcmp(rank, "min_ns") == 0)
        return s.min();
    if (std::strcmp(rank, "max_ns") == 0)
        return s.max();
    if (std::strcmp(rank, "p50_ns") == 0)
        return s.quantile(0.5);
    if (std::strcmp(rank, "p90_ns") == 0)
        return s.quantile(0.9);
    if (std::strcmp(rank, "p99_ns") == 0)
        return s.quantile(0.99);
    return s.quantile(0.999);
}

double
relDelta(double a, double b)
{
    double m = std::max(std::fabs(a), std::fabs(b));
    return m > 0 ? std::fabs(b - a) / m : 0.0;
}

/** Stable most-changed-first order (byte-identical reports). */
bool
entryBefore(const DiffEntry &x, const DiffEntry &y)
{
    if (x.rel != y.rel)
        return x.rel > y.rel;
    if (x.window != y.window)
        return x.window < y.window;
    if (x.channel != y.channel)
        return x.channel < y.channel;
    return x.metric < y.metric;
}

void
diffSeries(RunDiff &out, std::int64_t window,
           const std::string &channel, const std::string &metric,
           double a, double b, double floor_rel, double abs_floor)
{
    double d = b - a;
    if (std::fabs(d) <=
        std::max(abs_floor,
                 floor_rel * std::max(std::fabs(a), std::fabs(b))))
        return;
    out.entries.push_back(
        DiffEntry{window, channel, metric, a, b, d, relDelta(a, b)});
}

const TelemetryWindow kEmptyWindow{};

void
diffRunPair(RunDiff &out, const TelRun &a, const TelRun &b,
            const DiffOptions &opts)
{
    // Window-aligned: the union of indices, absent windows all-zero
    // (a window one run never produced IS a difference).
    std::set<std::int64_t> indices;
    for (const TelemetryWindow &w : a.windows)
        indices.insert(w.index);
    for (const TelemetryWindow &w : b.windows)
        indices.insert(w.index);

    unsigned channels = std::max(a.channels, b.channels);
    for (std::int64_t i : indices) {
        const TelemetryWindow *wa = a.findWindow(i);
        const TelemetryWindow *wb = b.findWindow(i);
        const TelemetryWindow &va = wa ? *wa : kEmptyWindow;
        const TelemetryWindow &vb = wb ? *wb : kEmptyWindow;

        // Raw counters: any reproducible delta counts (%.9g values
        // round-trip exactly, so equal runs give exact zeros).
        for (std::size_t f = 0; f < kF; ++f) {
            diffSeries(out, i, "all", PerfCounters::fieldName(f),
                       va.all[f], vb.all[f], 1e-12, opts.absFloor);
        }
        for (unsigned c = 0; c < channels; ++c) {
            for (std::size_t f = 0; f < kF; ++f) {
                double xa = c < a.channels && wa
                                ? va.perChannel[c * kF + f]
                                : 0.0;
                double xb = c < b.channels && wb
                                ? vb.perChannel[c * kF + f]
                                : 0.0;
                diffSeries(out, i, "ch" + std::to_string(c),
                           PerfCounters::fieldName(f), xa, xb, 1e-12,
                           opts.absFloor);
            }
        }

        // Derived rates: noise-thresholded, both windows present.
        if (wa && wb) {
            for (const char *m : kDerivedDiff) {
                double xa = 0, xb = 0;
                if (TelemetryRun::windowMetric(va, m, &xa) &&
                    TelemetryRun::windowMetric(vb, m, &xb)) {
                    diffSeries(out, i, "all", m, xa, xb,
                               opts.threshold, opts.absFloor);
                }
            }
        }
    }
    std::sort(out.entries.begin(), out.entries.end(), entryBefore);

    // Run-level rank diffs: exact (reconstructed sketches).
    if (!a.latency.empty() || !b.latency.empty()) {
        for (const char *rank : kRanks) {
            std::uint64_t ra = rankValue(a.latency, rank);
            std::uint64_t rb = rankValue(b.latency, rank);
            if (ra != rb)
                out.rankDiffs.push_back(RankDiff{rank, ra, rb});
        }
    }

    // Family blame from the exact run totals: each family scored by
    // its most-moved counter, explained via the cause taxonomy.
    for (std::size_t f = 0; f < kF; ++f) {
        double ta = a.totals[f], tb = b.totals[f];
        if (std::fabs(tb - ta) <= opts.absFloor)
            continue;
        double rel = relDelta(ta, tb);
        if (rel <= opts.threshold)
            continue;
        const char *family = counterFamily(f);
        FamilyDelta *fd = nullptr;
        for (FamilyDelta &have : out.families) {
            if (have.family == family) {
                fd = &have;
                break;
            }
        }
        if (!fd) {
            out.families.push_back(FamilyDelta{family, 0, "", 0, 0, ""});
            fd = &out.families.back();
        }
        if (rel > fd->score) {
            fd->score = rel;
            fd->dominant = PerfCounters::fieldName(f);
            fd->dominantA = ta;
            fd->dominantB = tb;
            fd->cause = counterCause(f);
        }
    }
    std::sort(out.families.begin(), out.families.end(),
              [](const FamilyDelta &x, const FamilyDelta &y) {
                  if (x.score != y.score)
                      return x.score > y.score;
                  return x.family < y.family;
              });
}

} // namespace

const char *
counterFamily(std::size_t f)
{
    switch (static_cast<PerfField>(f)) {
      case PerfField::llcReads:
      case PerfField::llcWrites:
        return "demand";
      case PerfField::dramRead:
      case PerfField::dramWrite:
        return "dram";
      case PerfField::nvramRead:
      case PerfField::nvramWrite:
        return "nvram";
      case PerfField::tagHit:
      case PerfField::tagMissClean:
      case PerfField::tagMissDirty:
      case PerfField::ddoHit:
      case PerfField::missBypass:
      case PerfField::sramTagLookups:
        return "tag";
      case PerfField::refreshSlots:
      case PerfField::maintenanceStallNs:
        return "maintenance";
      case PerfField::queueWaitNs:
      case PerfField::bankConflicts:
      case PerfField::rowBufferHits:
      case PerfField::writeDrains:
        return "queue";
    }
    return "unknown";
}

const char *
counterCause(std::size_t f)
{
    // The AccessCause arrow (mem/request.hh Fig-3 taxonomy) that a
    // delta led by this counter maps back to.
    switch (static_cast<PerfField>(f)) {
      case PerfField::llcReads:
      case PerfField::llcWrites:
        return "demand traffic reaching the IMC changed";
      case PerfField::dramRead:
        return "TagProbe/DataRead: DRAM-side read work moved";
      case PerfField::dramWrite:
        return "CacheInsertWrite/DataWrite: DRAM-side write work "
               "moved";
      case PerfField::nvramRead:
        return "CacheFillRead/BypassRead: NVRAM reads moved";
      case PerfField::nvramWrite:
        return "DirtyWriteback: NVRAM writeback pressure moved";
      case PerfField::tagHit:
        return "tag hit share shifted (working-set residency)";
      case PerfField::tagMissClean:
        return "CacheFillRead: clean-miss fills shifted";
      case PerfField::tagMissDirty:
        return "DirtyWriteback: dirty-miss evictions shifted";
      case PerfField::ddoHit:
        return "DdoElideWrite: DDO write elision shifted";
      case PerfField::missBypass:
        return "BypassRead: non-inserted miss service shifted";
      case PerfField::sramTagLookups:
        return "DataRead: SRAM-answered tag checks shifted";
      case PerfField::refreshSlots:
        return "REF cadence changed (tRFC bank blocking)";
      case PerfField::maintenanceStallNs:
        return "refresh bank-time stall changed (see refresh_slots)";
      case PerfField::queueWaitNs:
        return "QueueWait: controller queue occupancy changed";
      case PerfField::bankConflicts:
        return "BankConflict: row-buffer locality worsened";
      case PerfField::rowBufferHits:
        return "row-buffer locality shifted";
      case PerfField::writeDrains:
        return "WriteDrain: WPQ drain-burst cadence changed";
    }
    return "";
}

bool
DiffReport::empty() const
{
    if (comparability == Comparability::Incomparable)
        return false;
    if (!diagnostics.empty() || !onlyInA.empty() || !onlyInB.empty())
        return false;
    for (const RunDiff &r : runs) {
        if (!r.empty())
            return false;
    }
    return true;
}

DiffReport
diffTelemetry(const TelDoc &a, const TelDoc &b, const DiffOptions &opts)
{
    DiffReport report;

    // Hard comparability: window geometry. Different windows cannot
    // be aligned; refuse (the caller may --force past this).
    if (a.windowS != b.windowS) {
        report.comparability = Comparability::Incomparable;
        report.diagnostics.push_back(
            "window length differs: " + num(a.windowS) + " s vs " +
            num(b.windowS) + " s (artifacts are not window-alignable)");
        if (!opts.force)
            return report;
    }

    // Soft comparability: provenance. Differences are reported, not
    // fatal — comparing across configs is the tool's whole point.
    auto diag = [&](const std::string &msg) {
        report.diagnostics.push_back(msg);
        if (report.comparability == Comparability::Comparable)
            report.comparability = Comparability::Diagnostics;
    };
    if (a.hasManifest != b.hasManifest) {
        diag(std::string("only ") + (a.hasManifest ? "A" : "B") +
             " carries a provenance manifest");
    } else if (a.hasManifest) {
        if (a.manifest.bench != b.manifest.bench)
            diag("bench differs: '" + a.manifest.bench + "' vs '" +
                 b.manifest.bench + "'");
        if (a.manifest.flags != b.manifest.flags) {
            auto join = [](const std::vector<std::string> &v) {
                std::string s;
                for (const std::string &f : v)
                    s += (s.empty() ? "" : " ") + f;
                return s.empty() ? std::string("<none>") : s;
            };
            diag("flags differ: [" + join(a.manifest.flags) +
                 "] vs [" + join(b.manifest.flags) + "]");
        }
        if (a.manifest.causalSeed != b.manifest.causalSeed)
            diag(strprintf("causal seed differs: %llu vs %llu",
                           static_cast<unsigned long long>(
                               a.manifest.causalSeed),
                           static_cast<unsigned long long>(
                               b.manifest.causalSeed)));
    }

    // Label-matched run pairs; unmatched labels are differences.
    std::set<std::string> bMatched;
    for (const TelRun &ra : a.runs) {
        const TelRun *rb = b.findRun(ra.label);
        if (!rb) {
            report.onlyInA.push_back(ra.label);
            continue;
        }
        bMatched.insert(ra.label);
        RunDiff rd;
        rd.label = ra.label;
        if (ra.config.hash != rb->config.hash) {
            rd.configMismatch = true;
            diag("run '" + ra.label + "': config hash " +
                 (ra.config.empty() ? "<none>" : ra.config.hash) +
                 " vs " +
                 (rb->config.empty() ? "<none>" : rb->config.hash));
        }
        if (ra.channels != rb->channels)
            diag(strprintf("run '%s': channel count %u vs %u",
                           ra.label.c_str(), ra.channels,
                           rb->channels));
        diffRunPair(rd, ra, *rb, opts);
        report.runs.push_back(std::move(rd));
    }
    for (const TelRun &rb : b.runs) {
        if (!bMatched.count(rb.label) && !a.findRun(rb.label))
            report.onlyInB.push_back(rb.label);
    }
    return report;
}

std::string
DiffReport::json(const DiffOptions &opts) const
{
    const char *comp =
        comparability == Comparability::Comparable ? "comparable"
        : comparability == Comparability::Diagnostics
            ? "diagnostics"
            : "incomparable";
    std::ostringstream os;
    os << "{\"schema\":\"nvsim-telemetry-diff-v1\",\"threshold\":"
       << num(opts.threshold) << ",\"comparability\":\"" << comp
       << "\",\"empty\":" << (empty() ? "true" : "false")
       << ",\"diagnostics\":[";
    for (std::size_t i = 0; i < diagnostics.size(); ++i)
        os << (i ? "," : "") << '"' << jsonEscape(diagnostics[i])
           << '"';
    os << "],\"only_in_a\":[";
    for (std::size_t i = 0; i < onlyInA.size(); ++i)
        os << (i ? "," : "") << '"' << jsonEscape(onlyInA[i]) << '"';
    os << "],\"only_in_b\":[";
    for (std::size_t i = 0; i < onlyInB.size(); ++i)
        os << (i ? "," : "") << '"' << jsonEscape(onlyInB[i]) << '"';
    os << "],\"runs\":[";
    for (std::size_t r = 0; r < runs.size(); ++r) {
        const RunDiff &rd = runs[r];
        os << (r ? "," : "") << "\n{\"label\":\""
           << jsonEscape(rd.label) << "\",\"config_mismatch\":"
           << (rd.configMismatch ? "true" : "false")
           << ",\"families\":[";
        for (std::size_t i = 0; i < rd.families.size(); ++i) {
            const FamilyDelta &fd = rd.families[i];
            os << (i ? "," : "") << "{\"family\":\""
               << jsonEscape(fd.family) << "\",\"score\":"
               << num(fd.score) << ",\"dominant\":\""
               << jsonEscape(fd.dominant) << "\",\"a\":"
               << num(fd.dominantA) << ",\"b\":" << num(fd.dominantB)
               << ",\"cause\":\"" << jsonEscape(fd.cause) << "\"}";
        }
        os << "],\"ranks\":[";
        for (std::size_t i = 0; i < rd.rankDiffs.size(); ++i) {
            const RankDiff &rk = rd.rankDiffs[i];
            os << (i ? "," : "") << "{\"rank\":\"" << rk.rank
               << "\",\"a\":" << rk.a << ",\"b\":" << rk.b << '}';
        }
        os << "],\"entries\":[";
        for (std::size_t i = 0; i < rd.entries.size(); ++i) {
            const DiffEntry &e = rd.entries[i];
            os << (i ? "," : "") << "\n{\"window\":" << e.window
               << ",\"channel\":\"" << e.channel << "\",\"metric\":\""
               << e.metric << "\",\"a\":" << num(e.a)
               << ",\"b\":" << num(e.b) << ",\"delta\":" << num(e.delta)
               << ",\"rel\":" << num(e.rel) << '}';
        }
        os << "\n]}";
    }
    os << "\n]}\n";
    return os.str();
}

std::string
DiffReport::text(const DiffOptions &opts) const
{
    std::ostringstream os;
    for (const std::string &d : diagnostics)
        os << "diag: " << d << '\n';
    if (comparability == Comparability::Incomparable) {
        os << "incomparable artifacts";
        if (!runs.empty())
            os << " (diffed anyway: --force)";
        os << '\n';
        if (runs.empty())
            return os.str();
    }
    for (const std::string &l : onlyInA)
        os << "run '" << l << "' only in A\n";
    for (const std::string &l : onlyInB)
        os << "run '" << l << "' only in B\n";

    std::size_t changed = 0;
    for (const RunDiff &rd : runs) {
        if (rd.empty())
            continue;
        os << "run '" << rd.label << "':\n";
        for (const FamilyDelta &fd : rd.families) {
            os << "  blame " << fd.family << ": " << fd.dominant << ' '
               << num(fd.dominantA) << " -> " << num(fd.dominantB);
            if (fd.dominantA != 0) {
                os << strprintf(" (%+.1f%%)",
                                100.0 * (fd.dominantB - fd.dominantA) /
                                    std::fabs(fd.dominantA));
            } else {
                os << " (was 0)";
            }
            os << " — " << fd.cause << '\n';
        }
        for (const RankDiff &rk : rd.rankDiffs) {
            os << "  rank " << rk.rank << ": " << rk.a << " -> "
               << rk.b << '\n';
        }
        std::size_t shown =
            std::min(opts.top, rd.entries.size());
        for (std::size_t i = 0; i < shown; ++i) {
            const DiffEntry &e = rd.entries[i];
            os << "  window " << e.window << ' ' << e.channel << ' '
               << e.metric << ": " << num(e.a) << " -> " << num(e.b)
               << " (rel " << num(e.rel) << ")\n";
        }
        if (rd.entries.size() > shown)
            os << "  ... " << rd.entries.size() - shown
               << " more changed series (--top= to widen)\n";
        changed += rd.entries.size();
    }
    if (empty())
        os << "identical: no differences above threshold "
           << num(opts.threshold) << '\n';
    else
        os << "DIFFERENT: " << changed
           << " changed series across " << runs.size() << " run(s)\n";
    return os.str();
}

} // namespace nvsim::obs
