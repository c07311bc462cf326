/**
 * @file
 * nvsim_inspect: offline inspection of nvsim telemetry artifacts.
 *
 *   nvsim_inspect diff A.json B.json [--threshold=R] [--top=N]
 *                                    [--json[=PATH]] [--force]
 *   nvsim_inspect manifest  RUN.json
 *
 * Exit codes (scripted by ci.sh):
 *   0  empty diff / manifest printed
 *   1  differences found
 *   2  artifacts incomparable (schema or window geometry mismatch)
 *
 * Everything runs the same deterministic code the in-process engine
 * uses (teldoc reload + obs/diff), so a diff of two identical-seed
 * runs is empty by construction.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/logging.hh"
#include "obs/diff/diff.hh"
#include "obs/diff/teldoc.hh"

using namespace nvsim;
using namespace nvsim::obs;

namespace
{

constexpr int kExitEmpty = 0;
constexpr int kExitDifferent = 1;
constexpr int kExitIncomparable = 2;

[[noreturn]] void
usage()
{
    std::fputs(
        "usage: nvsim_inspect <subcommand> [args]\n"
        "\n"
        "  diff A.json B.json   window-aligned telemetry diff\n"
        "      --threshold=R    relative noise floor for derived "
        "rates (default 0.01)\n"
        "      --top=N          changed series shown per run "
        "(default 10)\n"
        "      --json[=PATH]    emit nvsim-telemetry-diff-v1 JSON "
        "(default stdout)\n"
        "      --force          diff window-incomparable artifacts "
        "anyway\n"
        "  manifest RUN.json    print the embedded provenance "
        "manifest\n"
        "\n"
        "exit codes: 0 identical, 1 differences, 2 incomparable\n",
        stderr);
    std::exit(kExitIncomparable);
}

/** --flag=value parse; empty value allowed for --json. */
bool
flagArg(const char *arg, const char *flag, std::string *out)
{
    std::size_t n = std::strlen(flag);
    if (std::strncmp(arg, flag, n) != 0)
        return false;
    if (arg[n] == '\0') {
        out->clear();
        return true;
    }
    if (arg[n] != '=')
        return false;
    *out = arg + n + 1;
    return true;
}

double
numberArg(const std::string &v, const char *flag)
{
    try {
        std::size_t used = 0;
        double x = std::stod(v, &used);
        if (used == v.size())
            return x;
    } catch (...) {
    }
    fatal("nvsim_inspect: bad number '%s' for %s", v.c_str(), flag);
}

void
writeOut(const std::string &path, const std::string &payload)
{
    if (path.empty()) {
        std::fputs(payload.c_str(), stdout);
        return;
    }
    std::ofstream ofs(path, std::ios::out | std::ios::trunc);
    if (!ofs)
        fatal("nvsim_inspect: could not open '%s' for writing",
              path.c_str());
    ofs << payload;
}

int
cmdDiff(const std::vector<std::string> &args)
{
    DiffOptions opts;
    bool wantJson = false;
    std::string jsonPath, value;
    std::vector<std::string> paths;
    for (const std::string &a : args) {
        if (flagArg(a.c_str(), "--threshold", &value))
            opts.threshold = numberArg(value, "--threshold");
        else if (flagArg(a.c_str(), "--top", &value))
            opts.top = static_cast<std::size_t>(
                numberArg(value, "--top"));
        else if (flagArg(a.c_str(), "--json", &value)) {
            wantJson = true;
            jsonPath = value;
        } else if (a == "--force")
            opts.force = true;
        else if (!a.empty() && a[0] == '-')
            fatal("nvsim_inspect diff: unknown flag '%s'", a.c_str());
        else
            paths.push_back(a);
    }
    if (paths.size() != 2)
        usage();

    TelDoc a = loadTelemetryDoc(paths[0]);
    TelDoc b = loadTelemetryDoc(paths[1]);
    DiffReport report = diffTelemetry(a, b, opts);

    if (wantJson)
        writeOut(jsonPath, report.json(opts));
    if (!wantJson || !jsonPath.empty()) {
        std::printf("diff: A=%s B=%s\n", a.path.c_str(),
                    b.path.c_str());
        std::fputs(report.text(opts).c_str(), stdout);
    }
    if (report.comparability == Comparability::Incomparable &&
        !opts.force)
        return kExitIncomparable;
    return report.empty() ? kExitEmpty : kExitDifferent;
}

int
cmdManifest(const std::vector<std::string> &args)
{
    if (args.size() != 1 ||
        (!args[0].empty() && args[0][0] == '-'))
        usage();
    TelDoc doc = loadTelemetryDoc(args[0]);
    std::printf("%s: schema %s, window_s %s\n", doc.path.c_str(),
                doc.schema.c_str(),
                strprintf("%.9g", doc.windowS).c_str());
    if (!doc.hasManifest) {
        std::printf("no provenance manifest (pre-manifest artifact)\n");
    } else {
        const RunManifest &m = doc.manifest;
        std::printf("manifest: %s\n", doc.manifestSchema.c_str());
        std::printf("  bench: %s\n",
                    m.bench.empty() ? "<unset>" : m.bench.c_str());
        std::string flags;
        for (const std::string &f : m.flags)
            flags += (flags.empty() ? "" : " ") + f;
        std::printf("  flags: %s\n",
                    flags.empty() ? "<none>" : flags.c_str());
    }
    for (const TelRun &run : doc.runs) {
        std::printf("run '%s': %u channel(s), %zu window(s)",
                    run.label.c_str(), run.channels,
                    run.windows.size());
        if (!run.config.empty())
            std::printf(", config %s (%s, scale %llu)",
                        run.config.hash.c_str(),
                        run.config.mode.c_str(),
                        static_cast<unsigned long long>(
                            run.config.scale));
        std::printf("\n");
    }
    return kExitEmpty;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string sub = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    if (sub == "diff")
        return cmdDiff(args);
    if (sub == "manifest")
        return cmdManifest(args);
    usage();
}
