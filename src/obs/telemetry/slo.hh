/**
 * @file
 * SLO objectives over telemetry windows.
 *
 * Grammar (--slo=SPEC):
 *
 *   spec      := objective (';' objective)*
 *   objective := metric op value ['@' percent '%']
 *   op        := '<' | '<=' | '>' | '>='
 *
 * metric is any per-window telemetry metric
 * (TelemetryRun::windowMetric): p50_ns, p90_ns, p99_ns, p999_ns,
 * max_ns, eff_gbs, dram_gbs, nvram_gbs, amplification, maint_duty, ...
 * value is the target; the optional '@percent%' is the compliance
 * budget — the share of eligible windows that must meet the target
 * (default 100%). Examples:
 *
 *   --slo='p99_ns<1500'            every window's p99 under 1.5 us
 *   --slo='p99_ns<1500@95%;amplification<3.2'
 *                                  95% of windows under 1.5 us AND
 *                                  every window's amplification < 3.2
 *
 * An objective is evaluated per window over the windows where the
 * metric applies (a latency percentile needs at least one request in
 * the window); it passes when compliant/eligible >= budget. A run with
 * no eligible windows passes vacuously (reported as such). A run whose
 * telemetry ring evicted windows fails every objective: the verdict
 * would cover only the tail of the run (raise --telemetry-ring=).
 */

#ifndef NVSIM_OBS_TELEMETRY_SLO_HH
#define NVSIM_OBS_TELEMETRY_SLO_HH

#include <cstdint>
#include <string>
#include <vector>

namespace nvsim::obs
{

class TelemetryRun;

/** One parsed objective. */
struct SloObjective
{
    enum class Op
    {
        Lt,
        Le,
        Gt,
        Ge,
    };

    std::string metric;
    Op op = Op::Lt;
    double value = 0;
    double budgetPct = 100.0;  //!< share of windows that must comply
    std::string spec;          //!< original text, for reporting

    bool holds(double observed) const;
};

/** A parsed --slo= spec. */
struct SloSpec
{
    std::vector<SloObjective> objectives;

    bool empty() const { return objectives.empty(); }

    /** Parse @p text; fatal() with the grammar on any error. */
    static SloSpec parse(const std::string &text);
};

/** Per-objective evaluation outcome. */
struct SloObjectiveResult
{
    std::string spec;
    std::uint64_t eligible = 0;   //!< windows where the metric applied
    std::uint64_t compliant = 0;  //!< ... that met the target
    double worstValue = 0;        //!< most violating observed value
    std::int64_t worstWindow = -1;  //!< its window index (-1 = none)
    bool pass = true;
};

/** Whole-run evaluation outcome. */
struct SloResult
{
    std::vector<SloObjectiveResult> objectives;
    /** Windows the run's ring evicted; nonzero fails every objective. */
    std::uint64_t evicted = 0;
    bool pass = true;
};

/** Evaluate @p spec over every window of @p run. */
SloResult evaluateSlo(const SloSpec &spec, const TelemetryRun &run);

/** Render the console report block for one run. */
std::string sloReport(const std::string &label, const SloResult &r);

} // namespace nvsim::obs

#endif // NVSIM_OBS_TELEMETRY_SLO_HH
