#include "obs/perfetto.hh"

#include <algorithm>

#include "obs/json.hh"

namespace nvsim::obs
{

namespace
{
constexpr double kUsPerSecond = 1e6;
constexpr int kPid = 1;
} // namespace

bool
PerfettoTracer::admit()
{
    if (events_.size() >= kMaxEvents) {
        ++dropped_;
        return false;
    }
    return true;
}

void
PerfettoTracer::note(double t_s)
{
    horizon_ = std::max(horizon_, t_s);
}

void
PerfettoTracer::span(Track track, const std::string &name, double t0_s,
                     double t1_s,
                     std::vector<std::pair<std::string, double>> args)
{
    double b0 = timeBase_ + t0_s;
    double b1 = timeBase_ + t1_s;
    note(b1);
    if (!admit())
        return;
    events_.push_back({'X', static_cast<std::uint32_t>(track), name,
                       b0 * kUsPerSecond, (b1 - b0) * kUsPerSecond,
                       std::move(args)});
}

void
PerfettoTracer::counter(const std::string &name, double t_s, double value)
{
    double b = timeBase_ + t_s;
    note(b);
    if (!admit())
        return;
    events_.push_back({'C', 0, name, b * kUsPerSecond, 0,
                       {{"value", value}}});
}

void
PerfettoTracer::flow(char phase, Track track, const std::string &name,
                     double t_s, std::uint64_t id)
{
    double b = timeBase_ + t_s;
    note(b);
    if (!admit())
        return;
    Event e{phase, static_cast<std::uint32_t>(track), name,
            b * kUsPerSecond, 0, {}};
    e.flowId = id;
    events_.push_back(std::move(e));
}

void
PerfettoTracer::nameTrack(Track track, const std::string &name)
{
    std::uint32_t tid = static_cast<std::uint32_t>(track);
    for (auto &kv : trackNames_) {
        if (kv.first == tid) {
            kv.second = name;
            return;
        }
    }
    trackNames_.emplace_back(tid, name);
}

void
PerfettoTracer::writeJson(std::ostream &out) const
{
    JsonWriter json(out);
    json.beginObject();
    json.field("displayTimeUnit", "ms");
    json.beginArray("traceEvents");

    {
        json.beginObject();
        json.field("ph", "M");
        json.field("pid", kPid);
        json.field("name", "process_name");
        json.beginObject("args");
        json.field("name", "nvsim");
        json.endObject();
        json.endObject();
    }
    for (const auto &[tid, name] : trackNames_) {
        json.beginObject();
        json.field("ph", "M");
        json.field("pid", kPid);
        json.field("tid", static_cast<std::uint64_t>(tid));
        json.field("name", "thread_name");
        json.beginObject("args");
        json.field("name", name);
        json.endObject();
        json.endObject();
        // sort_index puts tracks in our enum order, not name order.
        json.beginObject();
        json.field("ph", "M");
        json.field("pid", kPid);
        json.field("tid", static_cast<std::uint64_t>(tid));
        json.field("name", "thread_sort_index");
        json.beginObject("args");
        json.field("sort_index", static_cast<std::uint64_t>(tid));
        json.endObject();
        json.endObject();
    }

    for (const Event &e : events_) {
        json.beginObject();
        json.field("ph", std::string(1, e.phase));
        json.field("pid", kPid);
        json.field("tid", static_cast<std::uint64_t>(e.tid));
        json.field("name", e.name);
        json.field("ts", e.ts_us);
        if (e.phase == 'X')
            json.field("dur", e.dur_us);
        if (e.phase == 's' || e.phase == 't' || e.phase == 'f') {
            json.field("cat", "causal");
            json.field("id", e.flowId);
            // Bind the flow end to the enclosing slice, not the next.
            if (e.phase == 'f')
                json.field("bp", "e");
        }
        if (!e.args.empty()) {
            json.beginObject("args");
            for (const auto &[k, v] : e.args)
                json.field(k, v);
            json.endObject();
        }
        json.endObject();
    }

    json.endArray();
    if (!metadataJson_.empty())
        json.rawField("metadata", metadataJson_);
    if (dropped_ > 0)
        json.field("droppedEvents",
                   static_cast<std::uint64_t>(dropped_));
    json.endObject();
    out << '\n';
}

} // namespace nvsim::obs
