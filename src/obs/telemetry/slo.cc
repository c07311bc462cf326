#include "obs/telemetry/slo.hh"

#include <cctype>
#include <cstdlib>
#include <sstream>

#include "core/logging.hh"
#include "obs/telemetry/telemetry.hh"

namespace nvsim::obs
{

namespace
{

const char *kGrammar =
    "--slo= grammar: metric op value ['@' percent '%'], objectives "
    "joined by ';'\n"
    "  ops: < <= > >=   metrics: p50_ns p90_ns p99_ns p999_ns min_ns "
    "max_ns mean_ns\n"
    "  latency_count eff_gbs dram_gbs nvram_gbs amplification "
    "maint_duty active_s epochs\n"
    "  example: --slo='p99_ns<1500@95%;amplification<3.2'";

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

double
parseNumber(const std::string &text, const std::string &objective)
{
    const char *c = text.c_str();
    char *end = nullptr;
    double v = std::strtod(c, &end);
    if (end == c || *end != '\0')
        fatal("bad number '%s' in SLO objective '%s'\n%s",
              text.c_str(), objective.c_str(), kGrammar);
    return v;
}

} // namespace

bool
SloObjective::holds(double observed) const
{
    switch (op) {
      case Op::Lt:
        return observed < value;
      case Op::Le:
        return observed <= value;
      case Op::Gt:
        return observed > value;
      case Op::Ge:
        return observed >= value;
    }
    return false;
}

SloSpec
SloSpec::parse(const std::string &text)
{
    SloSpec spec;
    std::stringstream ss(text);
    std::string token;
    while (std::getline(ss, token, ';')) {
        token = trim(token);
        if (token.empty())
            continue;
        SloObjective o;
        o.spec = token;
        std::size_t opPos = token.find_first_of("<>");
        if (opPos == std::string::npos || opPos == 0)
            fatal("no comparison in SLO objective '%s'\n%s",
                  token.c_str(), kGrammar);
        std::size_t opLen = token.size() > opPos + 1 &&
                                    token[opPos + 1] == '='
                                ? 2
                                : 1;
        using Op = SloObjective::Op;
        o.op = token[opPos] == '<' ? (opLen == 2 ? Op::Le : Op::Lt)
                                   : (opLen == 2 ? Op::Ge : Op::Gt);
        o.metric = trim(token.substr(0, opPos));
        if (!TelemetryRun::knownMetric(o.metric))
            fatal("unknown SLO metric '%s' in '%s'\n%s",
                  o.metric.c_str(), token.c_str(), kGrammar);
        std::string rest = trim(token.substr(opPos + opLen));
        std::size_t at = rest.find('@');
        if (at != std::string::npos) {
            std::string pct = trim(rest.substr(at + 1));
            if (!pct.empty() && pct.back() == '%')
                pct.pop_back();
            o.budgetPct = parseNumber(trim(pct), token);
            if (o.budgetPct <= 0 || o.budgetPct > 100)
                fatal("SLO budget must be in (0, 100] in '%s'\n%s",
                      token.c_str(), kGrammar);
            rest = trim(rest.substr(0, at));
        }
        o.value = parseNumber(rest, token);
        spec.objectives.push_back(std::move(o));
    }
    if (spec.objectives.empty())
        fatal("empty --slo= spec\n%s", kGrammar);
    return spec;
}

SloResult
evaluateSlo(const SloSpec &spec, const TelemetryRun &run)
{
    SloResult result;
    result.evicted = run.windowsDropped();
    for (const SloObjective &o : spec.objectives) {
        SloObjectiveResult r;
        r.spec = o.spec;
        bool haveWorst = false;
        for (const TelemetryWindow &w : run.windows()) {
            double v = 0;
            if (!TelemetryRun::windowMetric(w, o.metric, &v))
                continue;
            ++r.eligible;
            if (o.holds(v)) {
                ++r.compliant;
                continue;
            }
            // The most violating value: largest for upper-bound
            // objectives, smallest for lower-bound ones.
            bool upper = o.op == SloObjective::Op::Lt ||
                         o.op == SloObjective::Op::Le;
            if (!haveWorst || (upper ? v > r.worstValue
                                     : v < r.worstValue)) {
                r.worstValue = v;
                r.worstWindow = w.index;
                haveWorst = true;
            }
        }
        if (r.eligible > 0) {
            double share = 100.0 * static_cast<double>(r.compliant) /
                           static_cast<double>(r.eligible);
            // An epsilon absorbs FP noise in the 100 * m/n division.
            r.pass = share >= o.budgetPct - 1e-9;
        }
        // The ring holds only the newest windows: a verdict on them
        // says nothing about the evicted head of the run.
        if (result.evicted > 0)
            r.pass = false;
        result.pass = result.pass && r.pass;
        result.objectives.push_back(std::move(r));
    }
    return result;
}

std::string
sloReport(const std::string &label, const SloResult &r)
{
    std::ostringstream os;
    os << "=== SLO report: " << label << " ===\n";
    for (const SloObjectiveResult &o : r.objectives) {
        os << "  " << (o.pass ? "PASS" : "FAIL") << ' ' << o.spec
           << " : ";
        if (o.eligible == 0) {
            os << "no eligible windows (vacuous)";
        } else {
            double share = 100.0 * static_cast<double>(o.compliant) /
                           static_cast<double>(o.eligible);
            os << strprintf("%.1f%%", share) << " of " << o.eligible
               << " windows compliant";
            if (o.compliant != o.eligible) {
                os << strprintf(" (worst %.6g @ window %lld)",
                                o.worstValue,
                                static_cast<long long>(o.worstWindow));
            }
        }
        if (r.evicted > 0) {
            os << "; " << r.evicted
               << " windows evicted, raise --telemetry-ring=";
        }
        os << '\n';
    }
    os << "  overall: " << (r.pass ? "PASS" : "FAIL") << '\n';
    return os.str();
}

} // namespace nvsim::obs
