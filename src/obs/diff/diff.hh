/**
 * @file
 * Differential telemetry: window-aligned, per-channel, per-counter
 * comparison of two nvsim-telemetry-v1 artifacts.
 *
 * The paper's argument is an A/B comparison, so the diff is built to
 * answer "what changed between these two runs, and why" rather than
 * "are the files equal":
 *
 *  - Comparability is decided first, from the embedded manifests.
 *    Different schema or window length makes the artifacts
 *    incomparable (Comparability::Incomparable — refuse unless
 *    forced); different bench, flags, seed or per-run config hash is
 *    a first-class diagnostic on the report (the comparison is
 *    apples-to-oranges on purpose — say so, then diff anyway).
 *  - Counters diff per (window, channel, counter), window-aligned by
 *    index, with "all" as a pseudo-channel; derived rates (eff_gbs,
 *    p99_ns, ...) diff per window under a relative noise threshold.
 *  - Latency distributions diff at named ranks from the
 *    reconstructed sketches; merging is exact bucket addition, so a
 *    rank delta of zero means the distributions agree to bucket
 *    resolution (< 1/128 relative), not that two floats were close.
 *  - The ranked "what changed" summary aggregates counter deltas into
 *    the counter families (demand / dram / nvram / tag / maintenance /
 *    queue) and maps the dominant counter back to the AccessCause
 *    taxonomy: a refresh_slots rise *explains* a maintenance_stall_ns
 *    delta.
 *
 * Identical inputs produce an empty report; everything is rendered
 * with the deterministic %.9g convention, so diff output is
 * byte-identical at any --jobs=N.
 */

#ifndef NVSIM_OBS_DIFF_DIFF_HH
#define NVSIM_OBS_DIFF_DIFF_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/diff/teldoc.hh"

namespace nvsim::obs
{

/** Diff knobs (nvsim_inspect flags). */
struct DiffOptions
{
    /** Relative noise threshold for derived-rate deltas. */
    double threshold = 0.01;
    /** Absolute floor below which a delta is noise regardless. */
    double absFloor = 1e-9;
    /** Entries shown per run in the text report. */
    std::size_t top = 10;
    /** Diff incomparable artifacts anyway (exit-2 override). */
    bool force = false;
};

/** How comparable the two artifacts are. */
enum class Comparability
{
    Comparable,   //!< same schema/window/provenance
    Diagnostics,  //!< provenance differs; diffed with diagnostics
    Incomparable, //!< schema/window mismatch; no metric diff ran
};

/** One changed (window, channel, series) triple. */
struct DiffEntry
{
    std::int64_t window = 0;
    std::string channel;  //!< "all" or "chN"
    std::string metric;   //!< counter or derived-rate name
    double a = 0;         //!< value in artifact A
    double b = 0;         //!< value in artifact B
    double delta = 0;     //!< b - a
    double rel = 0;       //!< |delta| / max(|a|, |b|)
};

/** Latency-rank delta (exact to bucket resolution). */
struct RankDiff
{
    std::string rank;  //!< "p50_ns", ..., "min_ns", "max_ns"
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/** Family-level attribution: what changed, and what explains it. */
struct FamilyDelta
{
    std::string family;    //!< demand/dram/nvram/tag/maintenance/queue
    double score = 0;      //!< largest run-total relative delta
    std::string dominant;  //!< counter with that delta
    double dominantA = 0;
    double dominantB = 0;
    std::string cause;     //!< AccessCause-taxonomy explanation
};

/** Diff of one label-matched run pair. */
struct RunDiff
{
    std::string label;
    bool configMismatch = false;  //!< per-run config hashes differ
    std::vector<DiffEntry> entries;    //!< sorted, most-changed first
    std::vector<RankDiff> rankDiffs;   //!< run-level changed ranks
    std::vector<FamilyDelta> families; //!< ranked blame summary

    bool
    empty() const
    {
        return entries.empty() && rankDiffs.empty() && !configMismatch;
    }
};

/** The full comparison. */
struct DiffReport
{
    Comparability comparability = Comparability::Comparable;
    std::vector<std::string> diagnostics;  //!< manifest findings
    std::vector<RunDiff> runs;             //!< label order
    std::vector<std::string> onlyInA;      //!< unmatched run labels
    std::vector<std::string> onlyInB;

    /** No metric changed anywhere and the run sets match. */
    bool empty() const;

    /** nvsim-telemetry-diff-v1 JSON (plot_traces.py heatmap input). */
    std::string json(const DiffOptions &opts) const;

    /** Human report, @p top entries per run. */
    std::string text(const DiffOptions &opts) const;
};

/** Counter family of PerfField index @p f. */
const char *counterFamily(std::size_t f);

/** AccessCause-taxonomy explanation of a delta led by counter @p f. */
const char *counterCause(std::size_t f);

/**
 * Compare two loaded artifacts. With Incomparable comparability (and
 * no force), runs/entries stay empty and only diagnostics are filled.
 */
DiffReport diffTelemetry(const TelDoc &a, const TelDoc &b,
                         const DiffOptions &opts);

} // namespace nvsim::obs

#endif // NVSIM_OBS_DIFF_DIFF_HH
