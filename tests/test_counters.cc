/**
 * @file
 * PerfCounters field-list coverage: the struct's fields, operators and
 * named() view are all generated from NVSIM_PERF_COUNTER_FIELDS, and
 * these tests pin down that no path can drift from the list again.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "imc/counters.hh"

using namespace nvsim;

namespace
{

/** A counter block with every field set to a distinct value. */
PerfCounters
distinct()
{
    PerfCounters c;
    std::uint64_t v = 1;
    c.forEachField([&](const char *, const char *, std::uint64_t &f) {
        f = v;
        v += 10;
    });
    return c;
}

} // namespace

TEST(Counters, NamedCoversEveryField)
{
    PerfCounters c = distinct();
    auto named = c.named();
    EXPECT_EQ(named.size(), PerfCounters::numFields());

    // Every visited field appears under its snake name with its exact
    // value — so named() can never silently omit or alias a counter.
    std::set<std::string> seen;
    c.forEachField(
        [&](const char *name, const char *desc, std::uint64_t &v) {
            auto it = named.find(name);
            ASSERT_NE(it, named.end()) << "named() misses " << name;
            EXPECT_EQ(it->second, v) << name;
            EXPECT_TRUE(seen.insert(name).second)
                << "duplicate field name " << name;
            EXPECT_NE(std::string(desc), "") << name;
        });
    EXPECT_EQ(seen.size(), PerfCounters::numFields());
}

TEST(Counters, FieldListMatchesStructLayout)
{
    // Compile-time guarantee re-checked at runtime for the report: the
    // struct holds exactly the listed uint64 counters, nothing else.
    static_assert(sizeof(PerfCounters) ==
                  PerfCounters::numFields() * sizeof(std::uint64_t));
    EXPECT_EQ(PerfCounters::numFields(), 18u);
}

TEST(Counters, QueueCountersAreInTheList)
{
    // The queued-controller counters ride the same X-macro, so traces,
    // CSV dumps and telemetry get them without extra plumbing.
    PerfCounters c = distinct();
    auto named = c.named();
    for (const char *name : {"queue_wait_ns", "bank_conflicts",
                             "row_buffer_hits", "write_drains"}) {
        EXPECT_EQ(named.count(name), 1u) << name;
    }
}

TEST(Counters, MaintenanceCountersAreInTheList)
{
    // The refresh counters ride the same X-macro as everything else,
    // so trace channels, CSV dumps and JSON stats get them for free —
    // and a field added outside the list cannot compile (the
    // static_assert above) or pass NamedCoversEveryField.
    PerfCounters c = distinct();
    auto named = c.named();
    for (const char *name : {"refresh_slots", "maintenance_stall_ns"}) {
        EXPECT_EQ(named.count(name), 1u) << name;
    }
}

TEST(Counters, PlusEqualsCoversEveryField)
{
    PerfCounters a = distinct();
    PerfCounters b = distinct();
    a += b;
    a.forEachField([&](const char *name, const char *,
                       std::uint64_t &v) {
        auto named_b = b.named();
        EXPECT_EQ(v, 2 * named_b.at(name)) << name;
    });
}

TEST(Counters, DeltaCoversEveryField)
{
    PerfCounters a = distinct();
    PerfCounters twice = a;
    twice += a;
    PerfCounters d = twice.delta(a);
    auto named_a = a.named();
    d.forEachField(
        [&](const char *name, const char *, std::uint64_t &v) {
            EXPECT_EQ(v, named_a.at(name)) << name;
        });
}

TEST(Counters, AddOutcomeTouchesTagStats)
{
    PerfCounters c;
    c.addOutcome(MemRequestKind::LlcRead, CacheOutcome::Hit);
    c.addOutcome(MemRequestKind::LlcWrite, CacheOutcome::MissDirty);
    c.addOutcome(MemRequestKind::LlcWrite, CacheOutcome::DdoHit);
    EXPECT_EQ(c.llcReads, 1u);
    EXPECT_EQ(c.llcWrites, 2u);
    EXPECT_EQ(c.tagHit, 1u);
    EXPECT_EQ(c.tagMissDirty, 1u);
    EXPECT_EQ(c.ddoHit, 1u);
    EXPECT_EQ(c.demand(), 3u);
}
