#include "obs/manifest.hh"

#include <map>
#include <sstream>

#include "core/json.hh"
#include "core/logging.hh"
#include "obs/json.hh"

namespace nvsim::obs
{

std::string
digestHex(std::uint64_t digest)
{
    return strprintf("0x%016llx",
                     static_cast<unsigned long long>(digest));
}

namespace
{

/** FNV-1a 64-bit hash (the config digest primitive). */
std::uint64_t
fnv1a64(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Every leaf of config object @p v as path -> canonical value text. */
void
flattenLeaves(const JsonValue &v, const std::string &path,
              std::map<std::string, std::string> &out)
{
    if (v.isObject()) {
        for (const auto &[key, member] : v.members())
            flattenLeaves(member, path + "/" + key, out);
    } else if (v.isString()) {
        out[path] = '"' + jsonEscape(v.asString()) + '"';
    } else if (v.isBool()) {
        out[path] = v.asBool() ? "true" : "false";
    } else {
        out[path] = strprintf("%.17g", v.asNumber());
    }
}

} // namespace

std::uint64_t
configDigestHash(const std::string &config, const std::string &defaults)
{
    std::map<std::string, std::string> leaves, base;
    flattenLeaves(parseJson(config, "config"), "", leaves);
    flattenLeaves(parseJson(defaults, "default config"), "", base);
    std::string text;
    for (const auto &[path, value] : leaves) {
        auto it = base.find(path);
        if (it == base.end() || it->second != value)
            text += path + '=' + value + '\n';
    }
    return fnv1a64(text);
}

std::string
RunManifest::json(double window_s,
                  const std::string &telemetry_schema) const
{
    std::ostringstream os;
    os << "{\"schema\":\"" << kSchema << "\",\"telemetry_schema\":\""
       << jsonEscape(telemetry_schema) << "\",\"bench\":\""
       << jsonEscape(bench) << "\",\"flags\":[";
    for (std::size_t i = 0; i < flags.size(); ++i)
        os << (i ? "," : "") << '"' << jsonEscape(flags[i]) << '"';
    os << "],\"window_s\":" << strprintf("%.9g", window_s) << '}';
    return os.str();
}

std::string
ConfigDigest::json() const
{
    std::ostringstream os;
    os << "{\"config_hash\":\"" << jsonEscape(hash)
       << "\",\"mode\":\"" << jsonEscape(mode)
       << "\",\"scale\":" << scale << '}';
    return os.str();
}

} // namespace nvsim::obs
