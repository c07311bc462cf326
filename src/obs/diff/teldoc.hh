/**
 * @file
 * Loader for nvsim-telemetry-v1 JSON artifacts.
 *
 * The telemetry engine's JSON export (obs/telemetry/telemetry.cc) is
 * lossless for everything the comparative layer needs: per-window
 * aggregate and per-channel counter deltas, demand bytes, and the
 * latency sketch's sparse buckets. loadTelemetryDoc() parses a file
 * back into real TelemetryWindow structs (sketches reconstructed via
 * LatencySketch::fromSparse), so every in-process computation —
 * derived window metrics, SLO evaluation, the diff — runs
 * identically over a reloaded artifact. That is the foundation of
 * `nvsim_inspect`: a diff of a file gives bit-identical answers to
 * the run that produced it.
 *
 * Malformed input is fatal() (operator input, like config files); a
 * structurally valid document with missing optional sections (no
 * manifest, no sketch buckets) loads with those parts empty so older
 * artifacts degrade to a comparable-with-diagnostics state rather
 * than a crash.
 */

#ifndef NVSIM_OBS_DIFF_TELDOC_HH
#define NVSIM_OBS_DIFF_TELDOC_HH

#include <array>
#include <string>
#include <vector>

#include "imc/counters.hh"
#include "obs/manifest.hh"
#include "obs/telemetry/telemetry.hh"

namespace nvsim::obs
{

/** One run reloaded from a telemetry JSON. */
struct TelRun
{
    std::string label;
    unsigned channels = 0;
    double windowS = 0;
    std::uint64_t windowsDropped = 0;
    ConfigDigest config;  //!< empty when the artifact predates it
    /** Exact cumulative counter totals (PerfField order). */
    std::array<double, kNumPerfFields> totals{};
    LatencySketch latency;  //!< whole-run sketch (empty if no buckets)
    std::vector<TelemetryWindow> windows;  //!< ascending window index

    /** Window with @p index; nullptr when absent. */
    const TelemetryWindow *findWindow(std::int64_t index) const;
};

/** A parsed nvsim-telemetry-v1 document. */
struct TelDoc
{
    std::string path;    //!< where it was loaded from (diagnostics)
    std::string schema;  //!< top-level "schema"
    double windowS = 0;  //!< top-level "window_s"
    bool hasManifest = false;
    RunManifest manifest;         //!< valid when hasManifest
    std::string manifestSchema;   //!< manifest "schema" field
    std::vector<TelRun> runs;     //!< document order (label-sorted)

    /** Run with @p label; nullptr when absent. */
    const TelRun *findRun(const std::string &label) const;
};

/** Parse @p path; fatal() on unreadable/malformed input. */
TelDoc loadTelemetryDoc(const std::string &path);

/** PerfField index of snake_case @p name; kNumPerfFields if unknown. */
std::size_t perfFieldIndex(const std::string &name);

} // namespace nvsim::obs

#endif // NVSIM_OBS_DIFF_TELDOC_HH
