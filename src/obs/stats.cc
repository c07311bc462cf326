#include "obs/stats.hh"

#include "core/logging.hh"
#include "obs/json.hh"

namespace nvsim::obs
{

Group &
Group::child(const std::string &name)
{
    for (auto &c : children_) {
        if (c->name() == name)
            return *c;
    }
    children_.push_back(std::make_unique<Group>(name));
    return *children_.back();
}

Stat &
Group::add(const std::string &name, StatKind kind)
{
    if (find(name))
        panic("stat '%s' registered twice in group '%s'", name.c_str(),
              name_.c_str());
    Stat s;
    s.name = name;
    s.kind = kind;
    stats_.push_back(std::move(s));
    return stats_.back();
}

Scalar &
Group::scalar(const std::string &name)
{
    Stat &s = add(name, StatKind::Scalar);
    s.scalar = std::make_unique<Scalar>();
    return *s.scalar;
}

void
Group::formula(const std::string &name, std::function<double()> fn)
{
    Stat &s = add(name, StatKind::Formula);
    s.formula = std::move(fn);
}

LatencySketch &
Group::histogram(const std::string &name)
{
    Stat &s = add(name, StatKind::Histogram);
    s.histogram = std::make_unique<LatencySketch>();
    return *s.histogram;
}

const Stat *
Group::find(const std::string &name) const
{
    for (const Stat &s : stats_) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

void
Group::dumpJson(JsonWriter &json) const
{
    for (const Stat &s : stats_) {
        switch (s.kind) {
          case StatKind::Scalar:
            json.field(s.name, s.scalar->value());
            break;
          case StatKind::Formula:
            json.field(s.name, s.formula());
            break;
          case StatKind::Histogram: {
            const LatencySketch &h = *s.histogram;
            json.beginObject(s.name);
            json.field("count", h.count());
            json.field("sum", h.sum());
            json.field("min", h.min());
            json.field("max", h.max());
            json.field("mean", h.mean());
            json.beginArray("buckets");
            for (auto [b, count] : h.sparse()) {
                json.beginObject();
                json.field("lo", LatencySketch::bucketLow(b));
                json.field("hi", LatencySketch::bucketHigh(b));
                json.field("count", count);
                json.endObject();
            }
            json.endArray();
            json.endObject();
            break;
          }
        }
    }
    for (const auto &c : children_) {
        json.beginObject(c->name());
        c->dumpJson(json);
        json.endObject();
    }
}

void
Registry::dumpJson(std::ostream &out) const
{
    JsonWriter json(out);
    json.beginObject();
    root_.dumpJson(json);
    json.endObject();
    out << '\n';
}

} // namespace nvsim::obs
