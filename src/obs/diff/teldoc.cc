#include "obs/diff/teldoc.hh"

#include <algorithm>

#include "core/json.hh"
#include "core/logging.hh"

namespace nvsim::obs
{

namespace
{

constexpr std::size_t kF = kNumPerfFields;

/** Counter object {"name":value,...} into a dense PerfField array. */
void
readCounterObject(const JsonValue &obj, const std::string &path,
                  double *out)
{
    for (const auto &[key, value] : obj.members()) {
        std::size_t f = perfFieldIndex(key);
        if (f == kF)
            fatal("%s: unknown counter '%s' (schema drift?)",
                  path.c_str(), key.c_str());
        out[f] = value.asNumber();
    }
}

LatencySketch
readLatency(const JsonValue &lat, const std::string &path)
{
    const JsonValue *sketch = lat.find("sketch");
    if (!sketch)
        return {};  // pre-sketch artifact: quantiles only, no buckets
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;
    for (const JsonValue &pair : sketch->items()) {
        if (pair.items().size() != 2)
            fatal("%s: sketch bucket entry is not a [bucket, count] "
                  "pair",
                  path.c_str());
        buckets.emplace_back(
            static_cast<std::uint32_t>(pair.items()[0].asUint()),
            pair.items()[1].asUint());
    }
    auto u64 = [&](const char *key) -> std::uint64_t {
        const JsonValue *v = lat.find(key);
        return v ? v->asUint() : 0;
    };
    return LatencySketch::fromSparse(buckets, u64("min_ns"),
                                     u64("max_ns"), u64("sum_ns"));
}

TelemetryWindow
readWindow(const JsonValue &win, unsigned channels,
           const std::string &path)
{
    TelemetryWindow w;
    const JsonValue *index = win.find("index");
    if (!index)
        fatal("%s: window without an index", path.c_str());
    w.index = static_cast<std::int64_t>(index->asNumber());
    if (const JsonValue *v = win.find("active_s"))
        w.activeS = v->asNumber();
    if (const JsonValue *v = win.find("epochs"))
        w.epochs = v->asNumber();
    if (const JsonValue *v = win.find("demand_bytes"))
        w.demandBytes = v->asNumber();
    if (const JsonValue *counters = win.find("counters"))
        readCounterObject(*counters, path, w.all.data());
    w.perChannel.assign(static_cast<std::size_t>(channels) * kF, 0.0);
    if (const JsonValue *per = win.find("per_channel")) {
        if (per->items().size() != channels)
            fatal("%s: window %lld has %zu per-channel blocks for %u "
                  "channels",
                  path.c_str(), static_cast<long long>(w.index),
                  per->items().size(), channels);
        for (std::size_t c = 0; c < per->items().size(); ++c)
            readCounterObject(per->items()[c], path,
                              w.perChannel.data() + c * kF);
    }
    if (const JsonValue *lat = win.find("latency"))
        w.sketch = readLatency(*lat, path);
    return w;
}

RunManifest
readManifest(const JsonValue &man, std::string *schema_out)
{
    RunManifest m;
    if (const JsonValue *v = man.find("schema"))
        *schema_out = v->asString();
    if (const JsonValue *v = man.find("bench"))
        m.bench = v->asString();
    if (const JsonValue *v = man.find("flags")) {
        for (const JsonValue &f : v->items())
            m.flags.push_back(f.asString());
    }
    return m;
}

ConfigDigest
readConfig(const JsonValue &cfg)
{
    ConfigDigest d;
    if (const JsonValue *v = cfg.find("config_hash"))
        d.hash = v->asString();
    if (const JsonValue *v = cfg.find("mode"))
        d.mode = v->asString();
    if (const JsonValue *v = cfg.find("scale"))
        d.scale = v->asUint();
    return d;
}

} // namespace

std::size_t
perfFieldIndex(const std::string &name)
{
    for (std::size_t f = 0; f < kF; ++f) {
        if (name == PerfCounters::fieldName(f))
            return f;
    }
    return kF;
}

const TelemetryWindow *
TelRun::findWindow(std::int64_t index) const
{
    auto it = std::lower_bound(
        windows.begin(), windows.end(), index,
        [](const TelemetryWindow &w, std::int64_t i) {
            return w.index < i;
        });
    return it != windows.end() && it->index == index ? &*it : nullptr;
}

const TelRun *
TelDoc::findRun(const std::string &label) const
{
    for (const TelRun &r : runs) {
        if (r.label == label)
            return &r;
    }
    return nullptr;
}

TelDoc
loadTelemetryDoc(const std::string &path)
{
    JsonValue root = parseJsonFile(path);
    TelDoc doc;
    doc.path = path;
    if (const JsonValue *v = root.find("schema"))
        doc.schema = v->asString();
    if (doc.schema != "nvsim-telemetry-v1")
        fatal("%s: not an nvsim-telemetry-v1 document (schema '%s')",
              path.c_str(), doc.schema.c_str());
    if (const JsonValue *v = root.find("window_s"))
        doc.windowS = v->asNumber();
    if (const JsonValue *man = root.find("manifest")) {
        doc.manifest = readManifest(*man, &doc.manifestSchema);
        doc.hasManifest = true;
    }

    const JsonValue *runs = root.find("runs");
    if (!runs)
        fatal("%s: no \"runs\" array", path.c_str());
    for (const JsonValue &entry : runs->items()) {
        TelRun run;
        if (const JsonValue *v = entry.find("label"))
            run.label = v->asString();
        const JsonValue *tel = entry.find("telemetry");
        if (!tel)
            fatal("%s: run '%s' has no \"telemetry\" object",
                  path.c_str(), run.label.c_str());
        if (const JsonValue *v = tel->find("channels"))
            run.channels = static_cast<unsigned>(v->asUint());
        if (const JsonValue *v = tel->find("window_s"))
            run.windowS = v->asNumber();
        if (const JsonValue *v = tel->find("windows_dropped"))
            run.windowsDropped = v->asUint();
        if (const JsonValue *v = tel->find("config"))
            run.config = readConfig(*v);
        if (const JsonValue *v = tel->find("totals"))
            readCounterObject(*v, path, run.totals.data());
        if (const JsonValue *v = tel->find("latency"))
            run.latency = readLatency(*v, path);
        if (const JsonValue *ws = tel->find("windows")) {
            for (const JsonValue &win : ws->items())
                run.windows.push_back(
                    readWindow(win, run.channels, path));
        }
        doc.runs.push_back(std::move(run));
    }
    return doc;
}

} // namespace nvsim::obs
