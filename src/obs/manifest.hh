/**
 * @file
 * Run provenance manifests.
 *
 * The paper's argument is comparative — 1LM vs 2LM vs software
 * placement under identical conditions — so every telemetry artifact
 * must say *what produced it* precisely enough that two artifacts are
 * comparable-or-rejectable by construction. A RunManifest captures the
 * session-level provenance (bench name, canonical flag set, schema
 * versions, window length), and each observed run additionally
 * carries a SystemConfig digest: an FNV-1a hash of the
 * SystemConfig::toJson() leaves that differ from a default config's
 * (configDigestHash), so any knob change — scale, policy, maintenance
 * plan — changes the hash, while a key added or removed at its
 * default value does not.
 *
 * The manifest is embedded into the telemetry JSON (top-level
 * "manifest" object plus per-run "config") and the Perfetto trace
 * (top-level "metadata" object).
 * src/obs/diff consumes it: schema or window mismatch makes two
 * artifacts incomparable; a config-hash mismatch is a first-class
 * diagnostic on the diff report, not a crash.
 *
 * Determinism: every field is a pure function of the invocation, so
 * artifacts stay byte-identical run to run and at any --jobs=N.
 */

#ifndef NVSIM_OBS_MANIFEST_HH
#define NVSIM_OBS_MANIFEST_HH

#include <cstdint>
#include <string>
#include <vector>

namespace nvsim::obs
{

/** Canonical rendering of a 64-bit digest: "0x%016llx". */
std::string digestHex(std::uint64_t digest);

/**
 * FNV-1a hash of the leaves of JSON document @p config whose value
 * differs from the leaf at the same path in @p defaults (or which
 * @p defaults lacks), taken in path order. Changing any one value
 * changes the hash; adding or removing a key at its default value in
 * both documents does not.
 */
std::uint64_t configDigestHash(const std::string &config,
                               const std::string &defaults);

/** Session-level provenance, embedded into every telemetry artifact. */
struct RunManifest
{
    /** Manifest schema version (bumped when fields change meaning). */
    static constexpr const char *kSchema = "nvsim-manifest-v1";

    std::string bench;               //!< argv[0] basename
    std::vector<std::string> flags;  //!< verbatim argv[1..], in order

    /**
     * The manifest as one JSON object, e.g.
     * {"schema":"nvsim-manifest-v1","bench":...,"flags":[...],...}.
     * @p window_s and @p telemetry_schema describe the artifact the
     * manifest is embedded in.
     */
    std::string json(double window_s,
                     const std::string &telemetry_schema) const;
};

/** Per-run provenance: the SystemConfig digest plus headline knobs. */
struct ConfigDigest
{
    std::string hash;  //!< digestHex(configDigestHash(...))
    std::string mode;  //!< memoryModeName()
    std::uint64_t scale = 0;

    bool empty() const { return hash.empty(); }

    /** {"config_hash":"0x...","mode":"2lm","scale":N} */
    std::string json() const;
};

} // namespace nvsim::obs

#endif // NVSIM_OBS_MANIFEST_HH
