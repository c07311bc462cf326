#include "obs/manifest.hh"

#include <sstream>

#include "core/logging.hh"
#include "obs/json.hh"

namespace nvsim::obs
{

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

std::string
digestHex(std::uint64_t digest)
{
    return strprintf("0x%016llx",
                     static_cast<unsigned long long>(digest));
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
    os << "],\"causal_seed\":" << causalSeed
       << ",\"window_s\":" << strprintf("%.9g", window_s) << '}';
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
