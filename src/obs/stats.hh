/**
 * @file
 * Hierarchical statistics registry, in the gem5 stats tradition.
 *
 * Components register named stats into a tree of Groups:
 *
 *   obs::Group &imc = registry.root().child("imc0");
 *   obs::Scalar &rd = imc.scalar("dram_read");
 *   imc.formula("amplification",
 *               [&] { return counters.amplification(); });
 *   obs::LatencySketch &h = imc.histogram("latency_ns");
 *
 * Three stat kinds:
 *  - Scalar:    an owned monotonically written uint64;
 *  - Formula:   a callback evaluated at dump time, so components
 *               expose live state with zero hot-path cost;
 *  - Histogram: a LatencySketch (obs/telemetry/sketch.hh), exact for
 *               values below 64 — so Table I's 1-5 device accesses
 *               land in their own buckets — and log-linear above.
 *
 * The registry dumps as nested JSON (dumpJson).
 */

#ifndef NVSIM_OBS_STATS_HH
#define NVSIM_OBS_STATS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry/sketch.hh"

namespace nvsim::obs
{

class JsonWriter;

/** What a registered stat is (drives serialization). */
enum class StatKind : std::uint8_t { Scalar, Formula, Histogram };

/** An owned uint64 counter stat. */
class Scalar
{
  public:
    void add(std::uint64_t n = 1) { value_ += n; }
    void set(std::uint64_t v) { value_ = v; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** One named stat in a group. */
struct Stat
{
    std::string name;
    StatKind kind = StatKind::Scalar;
    std::unique_ptr<Scalar> scalar;
    std::function<double()> formula;
    std::unique_ptr<LatencySketch> histogram;
};

/** A node in the stats hierarchy. */
class Group
{
  public:
    explicit Group(std::string name) : name_(std::move(name)) {}

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    /** Get-or-create a child group. */
    Group &child(const std::string &name);

    /** Register stats. Re-registering a name panics. */
    Scalar &scalar(const std::string &name);
    void formula(const std::string &name, std::function<double()> fn);
    LatencySketch &histogram(const std::string &name);

    const std::string &name() const { return name_; }
    const std::vector<std::unique_ptr<Group>> &children() const
    {
        return children_;
    }
    const std::vector<Stat> &stats() const { return stats_; }

    /** Find a registered stat by name; nullptr if absent. */
    const Stat *find(const std::string &name) const;

    void dumpJson(JsonWriter &json) const;

  private:
    Stat &add(const std::string &name, StatKind kind);

    std::string name_;
    std::vector<Stat> stats_;
    std::vector<std::unique_ptr<Group>> children_;
};

/** Root of one stats hierarchy. */
class Registry
{
  public:
    Registry() : root_("") {}

    Group &root() { return root_; }
    const Group &root() const { return root_; }

    /** Dump the whole tree as one nested JSON object. */
    void dumpJson(std::ostream &out) const;

  private:
    Group root_;
};

} // namespace nvsim::obs

#endif // NVSIM_OBS_STATS_HH
