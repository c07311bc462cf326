/**
 * @file
 * Declarative SystemConfig <-> JSON.
 *
 * The JSON key set mirrors the struct one-to-one (snake_case keys,
 * nested objects per sub-struct). fromJson starts from the defaults
 * and applies only the keys present, so a config file states just what
 * it changes; toJson always emits the complete key set, so a captured
 * config is self-documenting and round-trips exactly. Unknown keys —
 * at any nesting level — are fatal: a typo'd knob must never silently
 * run with its default.
 */

#include <fstream>
#include <sstream>

#include "core/json.hh"
#include "core/logging.hh"
#include "obs/json.hh"
#include "sys/config.hh"

namespace nvsim
{

namespace
{

/** Fail on any key of @p v that checkKey() did not accept. */
class KeyChecker
{
  public:
    KeyChecker(const JsonValue &v, const std::string &where)
        : value_(v), where_(where)
    {
    }

    /** Claim @p key as known; returns its value or nullptr. */
    const JsonValue *
    get(const std::string &key)
    {
        known_.push_back(key);
        return value_.find(key);
    }

    /** After claiming every key: reject the ones nobody claimed. */
    void
    finish() const
    {
        for (const auto &m : value_.members()) {
            bool ok = false;
            for (const std::string &k : known_) {
                if (k == m.first) {
                    ok = true;
                    break;
                }
            }
            if (!ok)
                fatal("config: unknown key '%s' in %s", m.first.c_str(),
                      where_.c_str());
        }
    }

  private:
    const JsonValue &value_;
    std::string where_;
    std::vector<std::string> known_;
};

void
setUnsigned(const JsonValue *v, unsigned &out)
{
    if (v)
        out = static_cast<unsigned>(v->asUint());
}

void
setU32(const JsonValue *v, std::uint32_t &out)
{
    if (v)
        out = static_cast<std::uint32_t>(v->asUint());
}

void
setU64(const JsonValue *v, std::uint64_t &out)
{
    if (v)
        out = v->asUint();
}

void
setDouble(const JsonValue *v, double &out)
{
    if (v)
        out = v->asNumber();
}

void
setBool(const JsonValue *v, bool &out)
{
    if (v)
        out = v->asBool();
}

void
setString(const JsonValue *v, std::string &out)
{
    if (v)
        out = v->asString();
}

void
parseMode(const JsonValue *v, MemoryMode &out)
{
    if (!v)
        return;
    const std::string &s = v->asString();
    if (s == "1LM")
        out = MemoryMode::OneLm;
    else if (s == "2LM")
        out = MemoryMode::TwoLm;
    else
        fatal("config: mode must be \"1LM\" or \"2LM\", got \"%s\"",
              s.c_str());
}

void
parseDdoMode(const JsonValue *v, DdoMode &out)
{
    if (!v)
        return;
    const std::string &s = v->asString();
    if (s == "none")
        out = DdoMode::None;
    else if (s == "recent_tracker")
        out = DdoMode::RecentTracker;
    else if (s == "oracle")
        out = DdoMode::Oracle;
    else
        fatal("config: ddo.mode must be none|recent_tracker|oracle, "
              "got \"%s\"",
              s.c_str());
}

void
parseDram(const JsonValue &v, DramParams &p)
{
    KeyChecker k(v, "dram");
    setU64(k.get("capacity"), p.capacity);
    setDouble(k.get("bandwidth"), p.bandwidth);
    setDouble(k.get("latency"), p.latency);
    k.finish();
}

void
parseNvram(const JsonValue &v, NvramParams &p)
{
    KeyChecker k(v, "nvram");
    setU64(k.get("capacity"), p.capacity);
    setDouble(k.get("read_bandwidth"), p.readBandwidth);
    setDouble(k.get("write_bandwidth"), p.writeBandwidth);
    setDouble(k.get("read_latency"), p.readLatency);
    setDouble(k.get("write_latency"), p.writeLatency);
    setUnsigned(k.get("read_buffer_entries"), p.readBufferEntries);
    setUnsigned(k.get("wpq_entries"), p.wpqEntries);
    setDouble(k.get("write_contention_alpha"), p.writeContentionAlpha);
    setUnsigned(k.get("write_contention_knee"), p.writeContentionKnee);
    k.finish();
}

void
parsePolicy(const JsonValue &v, CachePolicyConfig &p)
{
    KeyChecker k(v, "policy");
    setString(k.get("kind"), p.kind);
    setString(k.get("replacement"), p.replacement);
    setUnsigned(k.get("insert_threshold"), p.insertThreshold);
    setU32(k.get("counter_entries"), p.counterEntries);
    k.finish();
}

void
parseDdo(const JsonValue &v, DdoConfig &p)
{
    KeyChecker k(v, "ddo");
    parseDdoMode(k.get("mode"), p.mode);
    setU32(k.get("tracker_entries"), p.trackerEntries);
    k.finish();
}

void
parseRefresh(const JsonValue &v, RefreshConfig &p)
{
    KeyChecker k(v, "maintenance.refresh");
    setDouble(k.get("trefi"), p.trefi);
    setDouble(k.get("trfc"), p.trfc);
    k.finish();
}

void
parseMaintenance(const JsonValue &v, MaintenanceConfig &p)
{
    KeyChecker k(v, "maintenance");
    if (const JsonValue *r = k.get("refresh"))
        parseRefresh(*r, p.refresh);
    k.finish();
}

void
parseController(const JsonValue &v, ControllerConfig &p)
{
    KeyChecker k(v, "controller");
    setString(k.get("scheduler"), p.scheduler);
    setUnsigned(k.get("read_queue_entries"), p.readQueueEntries);
    setUnsigned(k.get("write_queue_entries"), p.writeQueueEntries);
    setUnsigned(k.get("banks"), p.banks);
    setU64(k.get("row_bytes"), p.rowBytes);
    setUnsigned(k.get("drain_high_watermark"), p.drainHighWatermark);
    setUnsigned(k.get("drain_low_watermark"), p.drainLowWatermark);
    setUnsigned(k.get("starvation_cap"), p.starvationCap);
    setDouble(k.get("bank_conflict_penalty"), p.bankConflictPenalty);
    setDouble(k.get("offered_gbs"), p.offeredGBs);
    k.finish();
}

void
parseLlc(const JsonValue &v, SystemConfig &c)
{
    KeyChecker k(v, "llc");
    setU64(k.get("capacity"), c.llcCapacity);
    setUnsigned(k.get("ways"), c.llcWays);
    setDouble(k.get("hit_latency"), c.llcHitLatency);
    k.finish();
}

SystemConfig
configFromRoot(const JsonValue &root)
{
    SystemConfig c;
    KeyChecker k(root, "the top-level object");
    setUnsigned(k.get("sockets"), c.sockets);
    setUnsigned(k.get("channels_per_socket"), c.channelsPerSocket);
    setUnsigned(k.get("cores_per_socket"), c.coresPerSocket);
    setU64(k.get("scale"), c.scale);
    parseMode(k.get("mode"), c.mode);
    if (const JsonValue *v = k.get("dram"))
        parseDram(*v, c.dram);
    if (const JsonValue *v = k.get("nvram"))
        parseNvram(*v, c.nvram);
    if (const JsonValue *v = k.get("maintenance"))
        parseMaintenance(*v, c.maintenance);
    if (const JsonValue *v = k.get("controller"))
        parseController(*v, c.controller);
    if (const JsonValue *v = k.get("ddo"))
        parseDdo(*v, c.ddo);
    if (const JsonValue *v = k.get("policy"))
        parsePolicy(*v, c.policy);
    setUnsigned(k.get("cache_ways"), c.cacheWays);
    setBool(k.get("insert_on_write_miss"), c.insertOnWriteMiss);
    setUnsigned(k.get("miss_handler_entries"), c.missHandlerEntries);
    setDouble(k.get("bus_bandwidth"), c.busBandwidth);
    if (const JsonValue *v = k.get("llc"))
        parseLlc(*v, c);
    setUnsigned(k.get("mlp"), c.mlp);
    setDouble(k.get("thread_issue_bandwidth"),
              c.threadIssueBandwidth);
    setDouble(k.get("thread_nt_store_bandwidth"),
              c.threadNtStoreBandwidth);
    setU64(k.get("interleave_granularity"), c.interleaveGranularity);
    setUnsigned(k.get("dma_engines"), c.dmaEngines);
    setDouble(k.get("dma_engine_bandwidth"), c.dmaEngineBandwidth);
    setU64(k.get("epoch_bytes"), c.epochBytes);
    setBool(k.get("scatter_pages"), c.scatterPages);
    setU64(k.get("page_bytes"), c.pageBytes);
    setU64(k.get("page_seed"), c.pageSeed);
    k.finish();
    return c;
}

} // namespace

SystemConfig
SystemConfig::fromJson(const std::string &text)
{
    return configFromRoot(parseJson(text, "config"));
}

SystemConfig
SystemConfig::fromJsonFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    // Parse errors cite the file via parseJson's position reporting.
    return configFromRoot(parseJson(ss.str(), path));
}

std::string
SystemConfig::toJson() const
{
    std::ostringstream out;
    obs::JsonWriter w(out);
    w.beginObject();
    w.field("sockets", std::uint64_t(sockets));
    w.field("channels_per_socket", std::uint64_t(channelsPerSocket));
    w.field("cores_per_socket", std::uint64_t(coresPerSocket));
    w.field("scale", std::uint64_t(scale));
    w.field("mode", memoryModeName(mode));

    w.beginObject("dram");
    w.field("capacity", std::uint64_t(dram.capacity));
    w.field("bandwidth", dram.bandwidth);
    w.field("latency", dram.latency);
    w.endObject();

    w.beginObject("nvram");
    w.field("capacity", std::uint64_t(nvram.capacity));
    w.field("read_bandwidth", nvram.readBandwidth);
    w.field("write_bandwidth", nvram.writeBandwidth);
    w.field("read_latency", nvram.readLatency);
    w.field("write_latency", nvram.writeLatency);
    w.field("read_buffer_entries",
            std::uint64_t(nvram.readBufferEntries));
    w.field("wpq_entries", std::uint64_t(nvram.wpqEntries));
    w.field("write_contention_alpha", nvram.writeContentionAlpha);
    w.field("write_contention_knee",
            std::uint64_t(nvram.writeContentionKnee));
    w.endObject();

    w.beginObject("maintenance");
    w.beginObject("refresh");
    w.field("trefi", maintenance.refresh.trefi);
    w.field("trfc", maintenance.refresh.trfc);
    w.endObject();
    w.endObject();

    w.beginObject("controller");
    w.field("scheduler", controller.scheduler);
    w.field("read_queue_entries",
            std::uint64_t(controller.readQueueEntries));
    w.field("write_queue_entries",
            std::uint64_t(controller.writeQueueEntries));
    w.field("banks", std::uint64_t(controller.banks));
    w.field("row_bytes", std::uint64_t(controller.rowBytes));
    w.field("drain_high_watermark",
            std::uint64_t(controller.drainHighWatermark));
    w.field("drain_low_watermark",
            std::uint64_t(controller.drainLowWatermark));
    w.field("starvation_cap", std::uint64_t(controller.starvationCap));
    w.field("bank_conflict_penalty", controller.bankConflictPenalty);
    w.field("offered_gbs", controller.offeredGBs);
    w.endObject();

    w.beginObject("ddo");
    w.field("mode", ddoModeName(ddo.mode));
    w.field("tracker_entries", std::uint64_t(ddo.trackerEntries));
    w.endObject();

    w.beginObject("policy");
    w.field("kind", policy.kind);
    w.field("replacement", policy.replacement);
    w.field("insert_threshold", std::uint64_t(policy.insertThreshold));
    w.field("counter_entries", std::uint64_t(policy.counterEntries));
    w.endObject();

    w.field("cache_ways", std::uint64_t(cacheWays));
    w.field("insert_on_write_miss", insertOnWriteMiss);
    w.field("miss_handler_entries", std::uint64_t(missHandlerEntries));
    w.field("bus_bandwidth", busBandwidth);

    w.beginObject("llc");
    w.field("capacity", std::uint64_t(llcCapacity));
    w.field("ways", std::uint64_t(llcWays));
    w.field("hit_latency", llcHitLatency);
    w.endObject();

    w.field("mlp", std::uint64_t(mlp));
    w.field("thread_issue_bandwidth", threadIssueBandwidth);
    w.field("thread_nt_store_bandwidth", threadNtStoreBandwidth);
    w.field("interleave_granularity",
            std::uint64_t(interleaveGranularity));
    w.field("dma_engines", std::uint64_t(dmaEngines));
    w.field("dma_engine_bandwidth", dmaEngineBandwidth);
    w.field("epoch_bytes", std::uint64_t(epochBytes));
    w.field("scatter_pages", scatterPages);
    w.field("page_bytes", std::uint64_t(pageBytes));
    w.field("page_seed", std::uint64_t(pageSeed));
    w.endObject();
    return out.str();
}

} // namespace nvsim
