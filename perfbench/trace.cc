/**
 * @file
 * Traced build: link-time interposition on the simulator's layer entry
 * points (ld --wrap, symbols in wrapped_symbols.txt) and an in-memory
 * span recorder. src/ is untouched; each __wrap_ function times the
 * call and forwards to __real_.
 *
 * Sampling. Per-line entry points (submit, touchLine, Llc::access, the
 * channel request paths, NVRAM reads/writes, scheduler enqueue/tick)
 * run millions of times, so each call is recorded with probability
 * 1/kSample and weight kSample, independently of the calls around it. Coarse
 * entry points (epoch and drain work, quiesce) record every call,
 * weight 1, and so does a front-end call (submit, touchLine) that
 * encloses one: the few calls that close an epoch carry its drain.
 * Recording only leaf-sized pieces keeps the recorder's own cost out
 * of the spans it encloses; every call is counted either way.
 *
 * Each span keeps its parent (the innermost enclosing recorded span)
 * and its caller (the entry point of the innermost enclosing call,
 * recorded or not). A layer's self time (analysis.py) is the weighted
 * duration of its spans minus the weighted duration of the spans its
 * calls enclose. The driver's point spans belong to no layer: what the
 * layers do not cover is the "other" bucket.
 *
 * Output: one JSON header line (entries, layers, labels, call and line
 * counts, recording cost), then the spans as packed little-endian
 * records <int64 start_ns, int64 end_ns, int32 parent, uint32 weight,
 * uint16 entry, uint16 caller, uint16 label, uint16 pad>, times from
 * the start of recording; caller 0xffff means none.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include <x86intrin.h>

#include "imc/channel.hh"
#include "mem/nvram.hh"
#include "sys/llc.hh"
#include "sys/memsys.hh"
#include "trace.hh"

using namespace nvsim;

namespace
{

constexpr std::uint32_t kSample = 64;

/**
 * Driver: the benchmark's own point spans. PerLine: sampled. FrontEnd:
 * sampled, but a call that encloses coarse work (an epoch closing
 * inside submit) is always recorded, with weight 1, since those rare
 * calls carry the epoch drain. Coarse: always recorded.
 */
enum class Kind : std::uint8_t { Driver, PerLine, FrontEnd, Coarse };

enum Entry : std::uint16_t {
    ePoint,
    eSubmit,
    eTouchLine,
    eAdvanceEpoch,
    eQuiesce,
    eLlcAccess,
    eHandle,
    eHandleFast,
    eHandleFastRun,
    eChDrainEpoch,
    eChEpochTime,
    eEnqueue,
    eTick,
    eDrainQueues,
    eNvRead,
    eNvWrite,
    eNvReadRun,
    eNvWriteRun,
    eNvDrainEpoch,
    eNvFlushWpq,
    eCalibrate,
    kEntries
};

struct EntryInfo
{
    const char *name;
    const char *layer;
    Kind kind;
};

const EntryInfo kInfo[kEntries] = {
    {"point", "driver", Kind::Driver},
    {"MemorySystem::submit", "sys", Kind::FrontEnd},
    {"MemorySystem::touchLine", "sys", Kind::FrontEnd},
    {"MemorySystem::advanceEpoch", "epoch", Kind::Coarse},
    {"MemorySystem::quiesce", "epoch", Kind::Coarse},
    {"Llc::access", "llc", Kind::PerLine},
    {"ChannelController::handle", "imc", Kind::PerLine},
    {"ChannelController::handleFast", "imc", Kind::PerLine},
    {"ChannelController::handleFastRun1lm", "imc", Kind::PerLine},
    {"ChannelController::drainEpoch", "epoch", Kind::Coarse},
    {"ChannelController::epochTime", "epoch", Kind::Coarse},
    {"ChannelController::enqueue", "sched", Kind::PerLine},
    {"ChannelController::tick", "sched", Kind::PerLine},
    {"ChannelController::drainQueues", "sched", Kind::Coarse},
    {"NvramDevice::read", "nvram", Kind::PerLine},
    {"NvramDevice::write", "nvram", Kind::PerLine},
    {"NvramDevice::readRun", "nvram", Kind::PerLine},
    {"NvramDevice::writeRun", "nvram", Kind::PerLine},
    {"NvramDevice::drainEpoch", "nvram", Kind::Coarse},
    {"NvramDevice::flushWpq", "nvram", Kind::Coarse},
    {"calibrate", "driver", Kind::Coarse},
};

constexpr std::uint16_t kNoCaller = 0xffff;

#pragma pack(push, 1)
struct Span
{
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int32_t parent = -1;
    std::uint32_t weight = 1;
    std::uint16_t entry = 0;
    std::uint16_t caller = kNoCaller;
    std::uint16_t label = 0;
    std::uint16_t pad = 0;
};
#pragma pack(pop)
static_assert(sizeof(Span) == 32);

/** An open call: its entry point and span index (-1: unrecorded). */
struct Frame
{
    std::int32_t span;
    std::uint16_t entry;
    bool coarseInside = false;  //!< a coarse call ran inside
    std::int64_t start = 0;     //!< FrontEnd calls: always stamped
    std::size_t firstSpan = 0;  //!< spans recorded from here on
};

struct Recorder
{
    bool recording = false;
    /** steady_clock ns and TSC ticks at the first and last toggle. */
    std::int64_t ns0 = 0, ticks0 = 0, ns1 = 0, ticks1 = 0;
    std::vector<Span> spans;
    std::vector<Frame> stack;
    std::vector<std::string> labels;
    std::uint64_t calls[kEntries] = {};
    std::uint64_t lines[kEntries] = {};
    /**
     * Sampling draws are random, not every kSample-th call: a fixed
     * stride aliases with the workloads' own strides (64 lines per
     * 4 KiB turn) and would sample the same position every time.
     */
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
};

Recorder g_rec;

/**
 * Span timestamps are raw TSC reads: unlike clock_gettime they do not
 * serialize the pipeline, so they perturb the timed code less. They
 * are converted to ns against steady_clock over the recording window.
 */
std::int64_t
nowTicks()
{
    return static_cast<std::int64_t>(__rdtsc());
}

std::int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
sampleDraw()
{
    std::uint64_t &x = g_rec.rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/** Innermost recorded frame's span: the parent of a new span. */
std::int32_t
parentSpan()
{
    for (auto it = g_rec.stack.rbegin(); it != g_rec.stack.rend(); ++it) {
        if (it->span >= 0)
            return it->span;
    }
    return -1;
}

/** Open a frame for entry @p e; returns false when not recording. */
bool
enter(Entry e, std::uint64_t lines, std::uint16_t label = 0)
{
    if (!g_rec.recording)
        return false;
    ++g_rec.calls[e];
    g_rec.lines[e] += lines;

    const Kind kind = kInfo[e].kind;
    bool rec = true;
    std::uint32_t weight = 1;
    if (kind == Kind::PerLine || kind == Kind::FrontEnd) {
        rec = sampleDraw() % kSample == 0;
        weight = kSample;
    } else if (kind == Kind::Coarse) {
        for (Frame &f : g_rec.stack)
            f.coarseInside = true;
    }
    Frame f{-1, e};
    f.firstSpan = g_rec.spans.size();
    if (rec) {
        Span s;
        s.parent = parentSpan();
        s.weight = weight;
        s.entry = e;
        if (!g_rec.stack.empty())
            s.caller = g_rec.stack.back().entry;
        s.label = label;
        f.span = static_cast<std::int32_t>(g_rec.spans.size());
        g_rec.spans.push_back(s);
    }
    g_rec.stack.push_back(f);
    if (rec)
        g_rec.spans.back().start = nowTicks();
    else if (kind == Kind::FrontEnd)
        g_rec.stack.back().start = nowTicks();
    return true;
}

void
leave()
{
    const Frame &top = g_rec.stack.back();
    const bool front = kInfo[top.entry].kind == Kind::FrontEnd;
    if (top.span < 0 && !(front && top.coarseInside)) {
        g_rec.stack.pop_back();
        return;
    }
    const std::int64_t t = nowTicks();
    const Frame f = top;
    g_rec.stack.pop_back();
    if (f.span >= 0) {
        g_rec.spans[f.span].end = t;
        if (front && f.coarseInside)
            g_rec.spans[f.span].weight = 1;
    } else if (front && f.coarseInside) {
        // An unsampled front-end call that closed an epoch: record it
        // after the fact and adopt the spans recorded inside it.
        Span s;
        s.start = f.start;
        s.end = t;
        s.parent = parentSpan();
        s.entry = f.entry;
        if (!g_rec.stack.empty())
            s.caller = g_rec.stack.back().entry;
        const auto idx = static_cast<std::int32_t>(g_rec.spans.size());
        for (std::size_t i = f.firstSpan; i < g_rec.spans.size(); ++i) {
            if (g_rec.spans[i].parent == s.parent)
                g_rec.spans[i].parent = idx;
        }
        g_rec.spans.push_back(s);
    }
}

template <typename F>
decltype(auto)
traced(Entry e, std::uint64_t lines, F &&call)
{
    const bool on = enter(e, lines);
    if constexpr (std::is_void_v<decltype(call())>) {
        call();
        if (on)
            leave();
    } else {
        auto r = call();
        if (on)
            leave();
        return r;
    }
}

std::uint64_t
batchLines(const AccessBatch &b)
{
    Addr first = lineBase(b.addr);
    Addr last = lineBase(b.addr + (b.size ? b.size - 1 : 0));
    return (last - first) / kLineSize + 1;
}

/**
 * What recording costs inside a span's own interval: the mean duration
 * of an empty span, in ns, median of several rounds. The calibration
 * spans are appended after the recorded ones, into memory as cold as
 * the recorded ones met, then dropped.
 */
double
calibrateInner()
{
    const std::size_t keep = g_rec.spans.size();
    const bool was = g_rec.recording;
    const double ns_per_tick =
        static_cast<double>(g_rec.ns1 - g_rec.ns0) /
        static_cast<double>(g_rec.ticks1 - g_rec.ticks0);
    constexpr int kRounds = 7, kSpans = 20000;
    std::vector<double> means;
    g_rec.recording = true;
    for (int r = 0; r < kRounds; ++r) {
        const std::size_t first = g_rec.spans.size();
        for (int i = 0; i < kSpans; ++i)
            traced(eCalibrate, 0, [] {});
        std::int64_t sum = 0;
        for (std::size_t i = first; i < g_rec.spans.size(); ++i)
            sum += g_rec.spans[i].end - g_rec.spans[i].start;
        means.push_back(ns_per_tick * static_cast<double>(sum) / kSpans);
    }
    g_rec.recording = was;
    g_rec.spans.resize(keep);
    g_rec.calls[eCalibrate] = 0;
    std::sort(means.begin(), means.end());
    return means[kRounds / 2];
}

} // namespace

namespace perfbench::trace
{

bool available() { return true; }

void
setRecording(bool on)
{
    if (on && !g_rec.ns0) {
        g_rec.spans.reserve(1u << 23);  // never reallocates mid-span
        g_rec.ns0 = steadyNs();
        g_rec.ticks0 = nowTicks();
    }
    if (!on && g_rec.recording) {
        g_rec.ns1 = steadyNs();
        g_rec.ticks1 = nowTicks();
    }
    g_rec.recording = on;
}

void
beginPoint(const std::string &name)
{
    g_rec.labels.push_back(name);
    enter(ePoint, 0, static_cast<std::uint16_t>(g_rec.labels.size() - 1));
}

void
endPoint()
{
    if (g_rec.recording)
        leave();
}

void
writeSpans(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        std::perror(path.c_str());
        std::exit(1);
    }
    const double inner = calibrateInner();
    const double ns_per_tick =
        static_cast<double>(g_rec.ns1 - g_rec.ns0) /
        static_cast<double>(g_rec.ticks1 - g_rec.ticks0);
    for (Span &s : g_rec.spans) {
        s.start = std::llround(ns_per_tick *
                               static_cast<double>(s.start - g_rec.ticks0));
        s.end = std::llround(ns_per_tick *
                             static_cast<double>(s.end - g_rec.ticks0));
    }
    std::fprintf(f,
                 "{\"sample\": %u, \"inner_ns\": %.3f, \"entries\": [",
                 kSample, inner);
    for (int e = 0; e < kEntries; ++e) {
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"layer\": \"%s\", "
                     "\"calls\": %llu, \"lines\": %llu}",
                     e ? ", " : "", kInfo[e].name, kInfo[e].layer,
                     static_cast<unsigned long long>(g_rec.calls[e]),
                     static_cast<unsigned long long>(g_rec.lines[e]));
    }
    std::fprintf(f, "], \"labels\": [");
    for (std::size_t i = 0; i < g_rec.labels.size(); ++i)
        std::fprintf(f, "%s\"%s\"", i ? ", " : "", g_rec.labels[i].c_str());
    std::fprintf(f, "], \"spans\": %zu}\n", g_rec.spans.size());
    if (!g_rec.spans.empty() &&
        std::fwrite(g_rec.spans.data(), sizeof(Span), g_rec.spans.size(),
                    f) != g_rec.spans.size()) {
        std::perror(path.c_str());
        std::exit(1);
    }
    if (std::fclose(f) != 0) {
        std::perror(path.c_str());
        std::exit(1);
    }
}

} // namespace perfbench::trace

// --- the interposed entry points ---
//
// Each __wrap_X receives the member function's arguments with `this`
// first, exactly as the Itanium C++ ABI passes them, and forwards to
// __real_X, which the linker binds to the original definition.

#define NVSIM_REAL(sym) __real_##sym
#define NVSIM_WRAP(sym) __wrap_##sym

extern "C" {

void NVSIM_REAL(_ZN5nvsim12MemorySystem6submitERKNS_11AccessBatchE)(
    MemorySystem *, const AccessBatch &);
void
NVSIM_WRAP(_ZN5nvsim12MemorySystem6submitERKNS_11AccessBatchE)(
    MemorySystem *self, const AccessBatch &b)
{
    traced(eSubmit, batchLines(b), [&] {
        NVSIM_REAL(_ZN5nvsim12MemorySystem6submitERKNS_11AccessBatchE)(
            self, b);
    });
}

void NVSIM_REAL(_ZN5nvsim12MemorySystem9touchLineEjNS_5CpuOpEm)(
    MemorySystem *, unsigned, CpuOp, Addr);
void
NVSIM_WRAP(_ZN5nvsim12MemorySystem9touchLineEjNS_5CpuOpEm)(
    MemorySystem *self, unsigned thread, CpuOp op, Addr line)
{
    traced(eTouchLine, 1, [&] {
        NVSIM_REAL(_ZN5nvsim12MemorySystem9touchLineEjNS_5CpuOpEm)(
            self, thread, op, line);
    });
}

void NVSIM_REAL(_ZN5nvsim12MemorySystem12advanceEpochEv)(MemorySystem *);
void
NVSIM_WRAP(_ZN5nvsim12MemorySystem12advanceEpochEv)(MemorySystem *self)
{
    traced(eAdvanceEpoch, 0, [&] {
        NVSIM_REAL(_ZN5nvsim12MemorySystem12advanceEpochEv)(self);
    });
}

void NVSIM_REAL(_ZN5nvsim12MemorySystem7quiesceEv)(MemorySystem *);
void
NVSIM_WRAP(_ZN5nvsim12MemorySystem7quiesceEv)(MemorySystem *self)
{
    traced(eQuiesce, 0,
           [&] { NVSIM_REAL(_ZN5nvsim12MemorySystem7quiesceEv)(self); });
}

LlcResult NVSIM_REAL(_ZN5nvsim3Llc6accessEmb)(Llc *, Addr, bool);
LlcResult
NVSIM_WRAP(_ZN5nvsim3Llc6accessEmb)(Llc *self, Addr addr, bool is_store)
{
    return traced(eLlcAccess, 1, [&] {
        return NVSIM_REAL(_ZN5nvsim3Llc6accessEmb)(self, addr, is_store);
    });
}

AccessResult NVSIM_REAL(
    _ZN5nvsim17ChannelController6handleERKNS_10MemRequestENS_7MemPoolE)(
    ChannelController *, const MemRequest &, MemPool);
AccessResult
NVSIM_WRAP(
    _ZN5nvsim17ChannelController6handleERKNS_10MemRequestENS_7MemPoolE)(
    ChannelController *self, const MemRequest &req, MemPool pool)
{
    return traced(eHandle, 1, [&] {
        return NVSIM_REAL(
            _ZN5nvsim17ChannelController6handleERKNS_10MemRequestENS_7MemPoolE)(
            self, req, pool);
    });
}

double NVSIM_REAL(
    _ZN5nvsim17ChannelController10handleFastENS_14MemRequestKindEmtNS_7MemPoolE)(
    ChannelController *, MemRequestKind, Addr, std::uint16_t, MemPool);
double
NVSIM_WRAP(
    _ZN5nvsim17ChannelController10handleFastENS_14MemRequestKindEmtNS_7MemPoolE)(
    ChannelController *self, MemRequestKind kind, Addr addr,
    std::uint16_t thread, MemPool pool)
{
    return traced(eHandleFast, 1, [&] {
        return NVSIM_REAL(
            _ZN5nvsim17ChannelController10handleFastENS_14MemRequestKindEmtNS_7MemPoolE)(
            self, kind, addr, thread, pool);
    });
}

double NVSIM_REAL(
    _ZN5nvsim17ChannelController16handleFastRun1lmENS_14MemRequestKindEmmtNS_7MemPoolE)(
    ChannelController *, MemRequestKind, Addr, std::uint64_t,
    std::uint16_t, MemPool);
double
NVSIM_WRAP(
    _ZN5nvsim17ChannelController16handleFastRun1lmENS_14MemRequestKindEmmtNS_7MemPoolE)(
    ChannelController *self, MemRequestKind kind, Addr addr,
    std::uint64_t lines, std::uint16_t thread, MemPool pool)
{
    return traced(eHandleFastRun, lines, [&] {
        return NVSIM_REAL(
            _ZN5nvsim17ChannelController16handleFastRun1lmENS_14MemRequestKindEmmtNS_7MemPoolE)(
            self, kind, addr, lines, thread, pool);
    });
}

ChannelEpoch NVSIM_REAL(_ZN5nvsim17ChannelController10drainEpochEv)(
    ChannelController *);
ChannelEpoch
NVSIM_WRAP(_ZN5nvsim17ChannelController10drainEpochEv)(
    ChannelController *self)
{
    return traced(eChDrainEpoch, 0, [&] {
        return NVSIM_REAL(_ZN5nvsim17ChannelController10drainEpochEv)(self);
    });
}

double NVSIM_REAL(_ZNK5nvsim17ChannelController9epochTimeERKNS_12ChannelEpochE)(
    const ChannelController *, const ChannelEpoch &);
double
NVSIM_WRAP(_ZNK5nvsim17ChannelController9epochTimeERKNS_12ChannelEpochE)(
    const ChannelController *self, const ChannelEpoch &epoch)
{
    return traced(eChEpochTime, 0, [&] {
        return NVSIM_REAL(
            _ZNK5nvsim17ChannelController9epochTimeERKNS_12ChannelEpochE)(
            self, epoch);
    });
}

void NVSIM_REAL(_ZN5nvsim17ChannelController7enqueueERKNS_11TransactionE)(
    ChannelController *, const Transaction &);
void
NVSIM_WRAP(_ZN5nvsim17ChannelController7enqueueERKNS_11TransactionE)(
    ChannelController *self, const Transaction &tx)
{
    traced(eEnqueue, 1, [&] {
        NVSIM_REAL(_ZN5nvsim17ChannelController7enqueueERKNS_11TransactionE)(
            self, tx);
    });
}

void NVSIM_REAL(_ZN5nvsim17ChannelController4tickEd)(ChannelController *,
                                                    double);
void
NVSIM_WRAP(_ZN5nvsim17ChannelController4tickEd)(ChannelController *self,
                                               double until)
{
    traced(eTick, 0, [&] {
        NVSIM_REAL(_ZN5nvsim17ChannelController4tickEd)(self, until);
    });
}

void NVSIM_REAL(_ZN5nvsim17ChannelController11drainQueuesEv)(
    ChannelController *);
void
NVSIM_WRAP(_ZN5nvsim17ChannelController11drainQueuesEv)(
    ChannelController *self)
{
    traced(eDrainQueues, 0, [&] {
        NVSIM_REAL(_ZN5nvsim17ChannelController11drainQueuesEv)(self);
    });
}

MediaFault NVSIM_REAL(_ZN5nvsim11NvramDevice4readEmt)(NvramDevice *, Addr,
                                                     std::uint16_t);
MediaFault
NVSIM_WRAP(_ZN5nvsim11NvramDevice4readEmt)(NvramDevice *self, Addr addr,
                                          std::uint16_t thread)
{
    return traced(eNvRead, 1, [&] {
        return NVSIM_REAL(_ZN5nvsim11NvramDevice4readEmt)(self, addr,
                                                         thread);
    });
}

MediaFault NVSIM_REAL(_ZN5nvsim11NvramDevice5writeEmt)(NvramDevice *,
                                                      Addr, std::uint16_t);
MediaFault
NVSIM_WRAP(_ZN5nvsim11NvramDevice5writeEmt)(NvramDevice *self, Addr addr,
                                           std::uint16_t thread)
{
    return traced(eNvWrite, 1, [&] {
        return NVSIM_REAL(_ZN5nvsim11NvramDevice5writeEmt)(self, addr,
                                                          thread);
    });
}

void NVSIM_REAL(_ZN5nvsim11NvramDevice7readRunEmm)(NvramDevice *, Addr,
                                                  std::uint64_t);
void
NVSIM_WRAP(_ZN5nvsim11NvramDevice7readRunEmm)(NvramDevice *self, Addr addr,
                                             std::uint64_t lines)
{
    traced(eNvReadRun, lines, [&] {
        NVSIM_REAL(_ZN5nvsim11NvramDevice7readRunEmm)(self, addr, lines);
    });
}

void NVSIM_REAL(_ZN5nvsim11NvramDevice8writeRunEmmt)(NvramDevice *, Addr,
                                                    std::uint64_t,
                                                    std::uint16_t);
void
NVSIM_WRAP(_ZN5nvsim11NvramDevice8writeRunEmmt)(NvramDevice *self,
                                               Addr addr,
                                               std::uint64_t lines,
                                               std::uint16_t thread)
{
    traced(eNvWriteRun, lines, [&] {
        NVSIM_REAL(_ZN5nvsim11NvramDevice8writeRunEmmt)(self, addr, lines,
                                                       thread);
    });
}

NvramEpoch NVSIM_REAL(_ZN5nvsim11NvramDevice10drainEpochEv)(NvramDevice *);
NvramEpoch
NVSIM_WRAP(_ZN5nvsim11NvramDevice10drainEpochEv)(NvramDevice *self)
{
    return traced(eNvDrainEpoch, 0, [&] {
        return NVSIM_REAL(_ZN5nvsim11NvramDevice10drainEpochEv)(self);
    });
}

void NVSIM_REAL(_ZN5nvsim11NvramDevice8flushWpqEv)(NvramDevice *);
void
NVSIM_WRAP(_ZN5nvsim11NvramDevice8flushWpqEv)(NvramDevice *self)
{
    traced(eNvFlushWpq, 0,
           [&] { NVSIM_REAL(_ZN5nvsim11NvramDevice8flushWpqEv)(self); });
}

} // extern "C"
