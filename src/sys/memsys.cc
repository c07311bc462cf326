#include "sys/memsys.hh"

#include <algorithm>
#include <string>

#include "core/logging.hh"
#include "core/rng.hh"
#include "obs/causal.hh"
#include "obs/manifest.hh"
#include "obs/observer.hh"
#include "obs/telemetry/telemetry.hh"

namespace nvsim
{

namespace
{
/** Process-wide engine default for new systems (--per-line flag). */
bool g_batched_default = true;

/**
 * Provenance digest of the config's non-default values: any knob
 * change moves the hash, a key added at its default does not.
 */
obs::ConfigDigest
configDigest(const SystemConfig &config)
{
    static const std::string kDefaults = SystemConfig{}.toJson();
    return {obs::digestHex(
                obs::configDigestHash(config.toJson(), kDefaults)),
            memoryModeName(config.mode), config.scale};
}
} // namespace

void
MemorySystem::setBatchedAccessDefault(bool on)
{
    g_batched_default = on;
}

MemorySystem::MemorySystem(const SystemConfig &config)
    : config_(config),
      llc_(LlcParams{config.scaledLlc(), config.llcWays}),
      batched_(g_batched_default)
{
    config_.validate();
    const ChannelParams cp = config_.channelParams();
    channels_.reserve(config_.totalChannels());
    for (unsigned i = 0; i < config_.totalChannels(); ++i)
        channels_.emplace_back(cp, config_.mode);
    imap_ = {Divider(config_.interleaveGranularity),
             Divider(channels_.size())};

    queued_ = config_.controller.queued();
    if (queued_) {
        // Read completions land their queue-adjusted latency here; the
        // channels never move after construction (reserve above), so
        // capturing `this` and the index is stable.
        for (unsigned i = 0; i < numChannels(); ++i) {
            channels_[i].setCompletionHandler(
                [this, i](const Transaction &tx,
                          const CompletionInfo &info) {
                    onTxComplete(i, tx, info);
                });
        }
    }

    if (config_.mode == MemoryMode::OneLm) {
        dramPoolSize_ = config_.dramTotal();
    } else {
        dramPoolSize_ = 0;  // DRAM is invisible: it is the cache
    }
    nvramPoolSize_ = config_.nvramTotal();

    if (config_.scatterPages) {
        // Each pool holds whole pages only, so every virtual page lies
        // in one pool and each pool owns exactly its pages' frames.
        const Bytes page = config_.scaledPageBytes();
        page_ = Divider(page);
        dramPoolSize_ -= dramPoolSize_ % page;
        nvramPoolSize_ -= nvramPoolSize_ % page;
        const std::size_t dram_pages = dramPoolSize_ / page;
        const std::size_t pages = dram_pages + nvramPoolSize_ / page;
        pageMap_.assign(pages, ~0u);
        auto fill = [](PagePool &pool, std::size_t first,
                       std::size_t last) {
            pool.frames.resize(last - first);
            for (std::size_t i = 0; i < pool.frames.size(); ++i)
                pool.frames[i] = static_cast<std::uint32_t>(first + i);
        };
        fill(dramFrames_, 0, dram_pages);
        fill(nvramFrames_, dram_pages, pages);
        pageRng_ = config_.pageSeed ? config_.pageSeed : 1;
    }
    dramBrk_ = 0;
    nvramBrk_ = dramPoolSize_;
}

MemorySystem::~MemorySystem()
{
    detachObserver();
}

void
MemorySystem::attachObserver(obs::Observer *observer)
{
    if (obs_ == observer)
        return;
    detachObserver();
    obs_ = observer;
    if (!obs_)
        return;

    // If the observer dies first, it must unwire our pointers to it.
    obs_->setDetachHook([this] { detachObserver(); });

    // Stats registration: everything is a formula reading live state,
    // so observed and unobserved runs execute the same hot path.
    obs::Group &root = obs_->root();

    obs::Group &sys = root.child("sys");
    sys.formula("sim_seconds", [this] { return now_; });
    sys.formula("active_threads",
                [this] { return static_cast<double>(activeThreads_); });
    // Media bytes written per demand byte, all DIMMs.
    sys.formula("nvram_write_amplification",
                [this] { return nvramWriteAmplification(); });

    obs::Group &llc = root.child("llc");
    llc.formula("hits",
                [this] { return static_cast<double>(llc_.hitCount()); });
    // Loads and store RFOs.
    llc.formula("misses",
                [this] { return static_cast<double>(llc_.missCount()); });
    llc.formula("dirty_evictions", [this] {
        return static_cast<double>(llc_.dirtyEvictionCount());
    });
    // Lines invalidated by nontemporal stores.
    llc.formula("nt_invalidates", [this] {
        return static_cast<double>(llc_.ntInvalidateCount());
    });
    llc.formula("hit_rate", [this] {
        std::uint64_t total = llc_.hitCount() + llc_.missCount();
        return total ? static_cast<double>(llc_.hitCount()) /
                           static_cast<double>(total)
                     : 0.0;
    });

    for (unsigned i = 0; i < numChannels(); ++i) {
        channels_[i].regStats(root.child("imc" + std::to_string(i)));
    }
}

void
MemorySystem::detachObserver()
{
    if (!obs_)
        return;
    // The registry's formulas point into this object: render them to
    // strings while the state is still alive.
    obs_->seal();
    obs_->setDetachHook({});
    obs_ = nullptr;
}

void
MemorySystem::attachTelemetry(obs::TelemetryRun *telemetry)
{
    if (tel_ == telemetry)
        return;
    // Close the open epoch so the collector starts on a boundary, and
    // baseline its snapshots against our cumulative counters (which
    // may be nonzero after a warmup phase).
    finishEpoch();
    tel_ = telemetry;
    if (!tel_)
        return;
    telScratch_.clear();
    for (const auto &ch : channels_)
        telScratch_.push_back(ch.counters());
    tel_->prime(telScratch_.data(),
                static_cast<unsigned>(telScratch_.size()));
    tel_->setProvenance(configDigest(config_));
}

std::uint32_t
MemorySystem::allocFrame(PagePool &pool)
{
    nvsim_assert(pool.next < pool.frames.size());
    // Incremental Fisher-Yates: pick a random not-yet-used frame.
    std::size_t remaining = pool.frames.size() - pool.next;
    std::size_t j = pool.next + splitmix64(pageRng_) % remaining;
    std::swap(pool.frames[pool.next], pool.frames[j]);
    return pool.frames[pool.next++];
}

Addr
MemorySystem::translate(Addr addr)
{
    if (!config_.scatterPages)
        return addr;
    Addr vpage, offset;
    page_.divmod(addr, vpage, offset);
    if (pageMap_[vpage] == ~0u) {
        PagePool &pool = poolOf(addr) == MemPool::Dram ? dramFrames_
                                                       : nvramFrames_;
        pageMap_[vpage] = allocFrame(pool);
    }
    return static_cast<Addr>(pageMap_[vpage]) * page_.divisor() + offset;
}

Region
MemorySystem::allocate(Bytes size, const std::string &name)
{
    if (config_.mode == MemoryMode::OneLm) {
        size = (size + kLineSize - 1) & ~(kLineSize - 1);
        if (poolFree(MemPool::Dram) >= size)
            return allocateIn(MemPool::Dram, size, name);
        // NUMA-preferred spill: fill the remaining DRAM and continue
        // into NVRAM, as first-touch page allocation does for a large
        // contiguous mapping. Only possible while the NVRAM pool is
        // untouched (the spill must be address-contiguous).
        if (poolFree(MemPool::Dram) > 0 && nvramBrk_ == dramPoolSize_ &&
            size <= poolFree(MemPool::Dram) + poolFree(MemPool::Nvram)) {
            Region r;
            r.name = name;
            r.size = size;
            r.base = dramBrk_;
            r.pool = MemPool::Dram;  // primary pool of the base address
            nvramBrk_ = dramPoolSize_ + (size - (dramPoolSize_ - dramBrk_));
            dramBrk_ = dramPoolSize_;
            return r;
        }
    }
    return allocateIn(MemPool::Nvram, size, name);
}

Region
MemorySystem::allocateIn(MemPool pool, Bytes size, const std::string &name)
{
    // Round to whole lines so regions never share a cache line.
    size = (size + kLineSize - 1) & ~(kLineSize - 1);
    Region r;
    r.name = name;
    r.size = size;
    r.pool = pool;
    if (pool == MemPool::Dram) {
        if (config_.mode != MemoryMode::OneLm)
            fatal("DRAM pool allocations need 1LM (app direct) mode");
        if (dramBrk_ + size > dramPoolSize_)
            fatal("DRAM pool exhausted allocating %llu B for '%s'",
                  static_cast<unsigned long long>(size), name.c_str());
        r.base = dramBrk_;
        dramBrk_ += size;
    } else {
        if (nvramBrk_ + size > dramPoolSize_ + nvramPoolSize_)
            fatal("NVRAM pool exhausted allocating %llu B for '%s'",
                  static_cast<unsigned long long>(size), name.c_str());
        r.base = nvramBrk_;
        nvramBrk_ += size;
    }
    return r;
}

Bytes
MemorySystem::poolFree(MemPool pool) const
{
    if (pool == MemPool::Dram)
        return dramPoolSize_ - dramBrk_;
    return dramPoolSize_ + nvramPoolSize_ - nvramBrk_;
}

MemPool
MemorySystem::poolOf(Addr addr) const
{
    return addr < dramPoolSize_ ? MemPool::Dram : MemPool::Nvram;
}

unsigned
MemorySystem::channelOf(Addr addr) const
{
    return imap_.channel(addr);
}

inline void
MemorySystem::chargeLatency(double lat, std::uint64_t n)
{
    // Line by line, so a batch of n adds in the per-line loop's order.
    for (std::uint64_t i = 0; i < n; ++i)
        epochLatencyWork_ += lat;
    if (tel_)
        tel_->noteLatency(lat, n);
}

inline void
MemorySystem::llcHit()
{
    chargeLatency(config_.llcHitLatency);
    if (obs_)
        obs_->noteLlcHit();
}

void
MemorySystem::issue(MemRequestKind kind, Addr line_addr, unsigned thread,
                    bool charge_demand)
{
    // Virtual-to-physical first (the cache and DIMMs see physical
    // addresses; translate() preserves the pool), then to the
    // channel-local address: each channel sees every numChannels-th
    // interleave chunk (over the online channels), compacted to a
    // contiguous local space. The hardware indexes its DRAM cache
    // (and DIMMs) with this local address, so a physically contiguous
    // array uses every set.
    const Addr phys = translate(line_addr);
    Addr local;
    const unsigned ch_idx = imap_.route(phys, local);
    issueAt(ch_idx, local, poolOf(phys), kind, thread, charge_demand);
}

inline void
MemorySystem::issueAt(unsigned ch_idx, Addr local, MemPool pool,
                      MemRequestKind kind, unsigned thread,
                      bool charge_demand)
{
    ChannelController &ch = channels_[ch_idx];
    std::int32_t tag = -1;
    const double lat =
        obs_ ? issueObserved(ch_idx, local, pool, kind, thread,
                             charge_demand, tag)
             : ch.handleFast(kind, local,
                             static_cast<std::uint16_t>(thread), pool);
    if (queued_)
        enqueueTx(ch, kind, local, lat, thread, charge_demand, tag);
    else if (charge_demand)
        chargeLatency(lat);
}

double
MemorySystem::issueObserved(unsigned ch_idx, Addr local, MemPool pool,
                            MemRequestKind kind, unsigned thread,
                            bool charge_demand, std::int32_t &tag)
{
    // Only CPU demand is sampled: DMA-engine traffic is not a request
    // any workload context waits for.
    MemRequest req{kind, local, static_cast<std::uint16_t>(thread)};
    obs::CausalTracer *causal = charge_demand ? obs_->causal() : nullptr;
    if (causal)
        req.traced = causal->shouldSample();
    const AccessResult res = channels_[ch_idx].handle(req, pool);
    // noteRequest carries the analytic (service) latency even in
    // queued mode: it feeds outcome/action counts; the queue-aware
    // totals reach the causal tracer and telemetry at completion.
    obs_->noteRequest(charge_demand, res.outcome, res.actions.total(),
                      res.latency);
    if (req.traced) {
        if (queued_) {
            tag = static_cast<std::int32_t>(txCausal_.size());
            txCausal_.push_back({kind, res.outcome, res.breakdown});
        } else {
            causal->record(kind, res.outcome, res.breakdown, now_,
                           res.latency, ch_idx);
        }
    }
    return res.latency;
}

void
MemorySystem::enqueueTx(ChannelController &ch, MemRequestKind kind,
                        Addr local, double service, unsigned thread,
                        bool charge_demand, std::int32_t tag)
{
    // The channel already moved the data (its counters and cache
    // state are the analytic model's), but a read's latency
    // is decided by queue occupancy.
    Transaction tx;
    tx.addr = local;
    tx.arrival = txArrival_;
    txArrival_ += static_cast<double>(kLineSize) / offeredBandwidth();
    tx.service = service;
    tx.kind = kind == MemRequestKind::LlcRead ? TransactionKind::Read
                                              : TransactionKind::Write;
    tx.thread = static_cast<std::uint16_t>(thread);
    tx.chargeDemand = charge_demand;
    tx.tag = tag;
    if (tx.kind == TransactionKind::Write && charge_demand) {
        // Posted write: the CPU-visible cost is the analytic accept
        // time, charged now; the WPQ residency is pure interference.
        chargeLatency(service);
    }
    ch.enqueue(tx);
}

inline void
MemorySystem::accessLine(unsigned thread, CpuOp op, Addr line_addr)
{
    switch (op) {
      case CpuOp::Load:
      case CpuOp::Store: {
        LlcResult lr = llc_.access(line_addr, op == CpuOp::Store);
        epochLoadBytes_ += kLineSize;
        if (lr.hit) {
            llcHit();
        } else {
            // Load miss or store RFO.
            issue(MemRequestKind::LlcRead, line_addr, thread);
            if (lr.evictedDirty)
                issue(MemRequestKind::LlcWrite, lr.victim, thread);
        }
        break;
      }
      case CpuOp::NtStore: {
        llc_.invalidateLine(line_addr);
        epochNtStoreBytes_ += kLineSize;
        issue(MemRequestKind::LlcWrite, line_addr, thread);
        break;
      }
    }
    epochDemandBytes_ += kLineSize;
    maybeFinishEpoch();
}

void
MemorySystem::touchLine(unsigned thread, CpuOp op, Addr line_addr)
{
    accessLine(thread, op, line_addr);
}

void
MemorySystem::submit(const AccessBatch &batch)
{
    const unsigned thread = batch.thread;
    const CpuOp op = batch.op;
    Addr first = lineBase(batch.addr);
    Addr last =
        lineBase(batch.addr + (batch.size ? batch.size - 1 : 0));

    // The reference per-line loop (setBatchedAccess(false)).
    if (!batched_) {
        for (Addr line = first; line <= last; line += kLineSize)
            accessLine(thread, op, line);
        return;
    }

    // One line (a graph kernel's 4 B or 16 B element): no segments.
    if (first == last) {
        accessLine(thread, op, first);
        return;
    }

    // Range path. Epoch boundaries must land exactly where the
    // per-line loop puts them, so process at most the lines that fit
    // before the next boundary, close the epoch, and continue.
    std::uint64_t left = (last - first) / kLineSize + 1;
    Addr a = first;
    while (left) {
        Bytes room = config_.epochBytes - epochDemandBytes_;
        std::uint64_t n = std::min<std::uint64_t>(
            left, (room + kLineSize - 1) / kLineSize);
        fastRange(thread, op, a, n);
        epochDemandBytes_ += n * kLineSize;
        maybeFinishEpoch();
        a += n * kLineSize;
        left -= n;
    }
}

void
MemorySystem::fastRange(unsigned thread, CpuOp op, Addr first,
                        std::uint64_t lines)
{
    // 1LM misses of a segment may coalesce into one device run only
    // when nothing needs them one by one: a queued request needs its
    // own arrival, an observed one its own hooks.
    const bool coalesce =
        config_.mode == MemoryMode::OneLm && !queued_ && !obs_;
    const std::uint16_t tid = static_cast<std::uint16_t>(thread);

    // A coalesced 1LM device run; its latency is accumulated line by
    // line, in the per-line loop's order.
    auto run = [&](unsigned ch_idx, Addr local, std::uint64_t n,
                   MemRequestKind kind, MemPool pool) {
        chargeLatency(
            channels_[ch_idx].handleFastRun1lm(kind, local, n, tid, pool),
            n);
    };

    Addr a = first;
    std::uint64_t left = lines;
    while (left) {
        // One segment: consecutive lines within one virtual page (one
        // translation), one physical interleave chunk (one channel)
        // and one pool, so the translation, the channel routing and
        // the local-address math hoist out of the line loop. An
        // unmapped page has no line in the LLC, so the segment's first
        // line is a miss and translating it here allocates the frame
        // exactly where the per-line loop would.
        Addr seg_end = a + left * kLineSize;
        if (config_.scatterPages) {
            const Addr page_end = (page_.quot(a) + 1) * page_.divisor();
            if (page_end < seg_end)
                seg_end = page_end;
        }
        const Addr phys = translate(a);
        Addr phys_end = phys + (seg_end - a);
        const Addr chunk_end =
            (imap_.gran.quot(phys) + 1) * imap_.gran.divisor();
        if (chunk_end < phys_end)
            phys_end = chunk_end;
        if (phys < dramPoolSize_ && dramPoolSize_ < phys_end)
            phys_end = dramPoolSize_;
        seg_end = a + (phys_end - phys);
        const std::uint64_t n = (seg_end - a) / kLineSize;

        const MemPool pool = poolOf(phys);
        Addr local;
        const unsigned ch_idx = imap_.route(phys, local);

        if (op == CpuOp::NtStore) {
            for (Addr la = a; la < seg_end; la += kLineSize)
                llc_.invalidateLine(la);
            epochNtStoreBytes_ += n * kLineSize;
            if (coalesce) {
                run(ch_idx, local, n, MemRequestKind::LlcWrite, pool);
            } else {
                const Addr end = local + n * kLineSize;
                for (Addr ll = local; ll < end; ll += kLineSize)
                    issueAt(ch_idx, ll, pool, MemRequestKind::LlcWrite,
                            thread, true);
            }
        } else {
            const bool is_store = op == CpuOp::Store;
            epochLoadBytes_ += n * kLineSize;
            // Coalesced misses form a run that is flushed before any
            // other latency contribution (LLC hit, dirty victim), so
            // the floating-point accumulation into epochLatencyWork_
            // happens line by line in exactly the per-line loop's
            // order.
            Addr run_local = 0;
            std::uint64_t run_lines = 0;
            auto flush_run = [&]() {
                if (!run_lines)
                    return;
                run(ch_idx, run_local, run_lines, MemRequestKind::LlcRead,
                    pool);
                run_lines = 0;
            };
            Addr ll = local;
            for (Addr la = a; la < seg_end;
                 la += kLineSize, ll += kLineSize) {
                LlcResult lr = llc_.access(la, is_store);
                if (lr.hit) {
                    flush_run();
                    llcHit();
                    continue;
                }
                if (coalesce) {
                    if (!run_lines)
                        run_local = ll;
                    ++run_lines;
                    if (lr.evictedDirty)
                        flush_run();
                } else {
                    issueAt(ch_idx, ll, pool, MemRequestKind::LlcRead,
                            thread, true);
                }
                if (lr.evictedDirty)
                    issue(MemRequestKind::LlcWrite, lr.victim, thread);
            }
            flush_run();
        }

        a = seg_end;
        left -= n;
    }
}

void
MemorySystem::dmaCopy(Addr dst, Addr src, Bytes bytes)
{
    double t_start = now_;
    Addr s = lineBase(src);
    Addr d = lineBase(dst);
    Addr end = lineBase(src + (bytes ? bytes - 1 : 0));
    for (; s <= end; s += kLineSize, d += kLineSize) {
        // The engine reads the source and writes the destination
        // directly at the controllers, keeping the LLC coherent by
        // invalidating its copy of the destination (like an NT store).
        // DMA traffic is not CPU demand: no latency work is charged;
        // engine occupancy is accounted instead.
        issue(MemRequestKind::LlcRead, s, 0, /*charge_demand=*/false);
        llc_.invalidateLine(d);
        issue(MemRequestKind::LlcWrite, d, 0, /*charge_demand=*/false);
        epochDemandBytes_ += kLineSize;
        epochDmaBytes_ += 2 * kLineSize;
        maybeFinishEpoch();
    }
    if (obs_)
        obs_->noteDma(t_start, now_, bytes);
}

void
MemorySystem::setActiveThreads(unsigned n)
{
    if (n == 0)
        fatal("active thread count must be positive");
    if (n != activeThreads_) {
        // Thread count affects the demand model; close the epoch so the
        // old count applies to the traffic it generated.
        advanceEpoch();
        activeThreads_ = n;
    }
}

void
MemorySystem::addComputeTime(double seconds)
{
    epochComputeFloor_ += seconds;
}

void
MemorySystem::maybeFinishEpoch()
{
    if (epochDemandBytes_ >= config_.epochBytes)
        finishEpoch();
}

void
MemorySystem::advanceEpoch()
{
    finishEpoch();
}

double
MemorySystem::offeredBandwidth() const
{
    if (config_.controller.offeredGBs > 0)
        return config_.controller.offeredGBs * 1e9;
    return static_cast<double>(activeThreads_) *
           config_.threadIssueBandwidth;
}

void
MemorySystem::onTxComplete(unsigned ch_idx, const Transaction &tx,
                           const CompletionInfo &info)
{
    const double total = info.latency.total();
    if (tx.kind == TransactionKind::Read && tx.chargeDemand)
        chargeLatency(total);
    if (tx.tag < 0)
        return;
    // Append what the request actually waited for at the controller to
    // the analytic breakdown captured at issue. The record is emitted
    // at the epoch drain, under the causal context current there.
    PendingCausal &pc = txCausal_[static_cast<std::size_t>(tx.tag)];
    if (info.latency.queueWait > 0) {
        pc.breakdown.add(info.drainStalled ? AccessCause::WriteDrain
                                           : AccessCause::QueueWait,
                         MemPool::Dram, info.latency.queueWait);
    }
    if (info.latency.bankPenalty > 0) {
        pc.breakdown.add(AccessCause::BankConflict, MemPool::Dram,
                         info.latency.bankPenalty);
    }
    pc.latency = total;
    pc.channel = ch_idx;
    txTraced_.push_back(tx.tag);
}

void
MemorySystem::runQueuedDrain()
{
    if (!queued_)
        return;
    // Fixed channel order: the single accumulation point that keeps
    // queued output byte-identical at any --jobs.
    for (auto &ch : channels_)
        ch.drainQueues();
    txArrival_ = 0;
    if (obs::CausalTracer *causal = obs_ ? obs_->causal() : nullptr) {
        for (std::int32_t tag : txTraced_) {
            const PendingCausal &pc =
                txCausal_[static_cast<std::size_t>(tag)];
            causal->record(pc.kind, pc.outcome, pc.breakdown, now_,
                           pc.latency, pc.channel);
        }
    }
    txTraced_.clear();
    txCausal_.clear();
}

void
MemorySystem::finishEpoch()
{
    // The queued controller drains its channel queues first, folding
    // queue wait into the latency work and the queue counters before
    // anything samples them.
    runQueuedDrain();

    // Resource-side: each channel moves its epoch traffic in parallel
    // with the others.
    double t_resource = 0;
    for (auto &ch : channels_) {
        ChannelEpoch e = ch.drainEpoch();
        t_resource = std::max(t_resource, ch.epochTime(e));
    }

    // Demand-side: latency-bound issue with `mlp` outstanding lines per
    // thread, plus per-thread issue bandwidth caps.
    double threads = static_cast<double>(activeThreads_);
    double t_latency =
        epochLatencyWork_ / (threads * static_cast<double>(config_.mlp));
    double t_load_issue = static_cast<double>(epochLoadBytes_) /
                          (threads * config_.threadIssueBandwidth);
    double t_nt_issue = static_cast<double>(epochNtStoreBytes_) /
                        (threads * config_.threadNtStoreBandwidth);

    // DMA engine occupancy: copies overlap with everything else but
    // are bounded by the engines' aggregate bandwidth.
    double t_dma =
        config_.dmaEngines > 0
            ? static_cast<double>(epochDmaBytes_) /
                  (static_cast<double>(config_.dmaEngines) *
                   config_.dmaEngineBandwidth)
            : 0.0;

    double dt = std::max({t_resource, t_latency, t_load_issue, t_nt_issue,
                          t_dma, epochComputeFloor_});

    bool had_activity = epochDemandBytes_ > 0 || epochComputeFloor_ > 0;
    now_ += dt;

    const bool refresh = config_.maintenance.enabled();
    if (refresh) {
        // Count the REF commands dt covers and their stall time before
        // the trace samples below, so the deltas land in this epoch.
        for (auto &ch : channels_)
            ch.noteRefreshEpoch(dt);
    }

    if (tel_ && had_activity && dt > 0) {
        // The telemetry collector diffs against its own snapshots, so
        // it just needs the cumulative per-channel blocks.
        telScratch_.clear();
        for (const auto &ch : channels_)
            telScratch_.push_back(ch.counters());
        tel_->onEpoch(now_ - dt, now_, epochDemandBytes_,
                      telScratch_.data(),
                      static_cast<unsigned>(telScratch_.size()));
    }

    if ((recordTrace_ || obs_) && had_activity && dt > 0) {
        PerfCounters total = counters();
        PerfCounters d = total.delta(lastSample_);
        lastSample_ = total;
        if (obs_) {
            obs::EpochSample s;
            s.t0 = now_ - dt;
            s.t1 = now_;
            s.demandBytes = epochDemandBytes_;
            s.refresh = refresh;
            s.delta = d;
            obs_->noteEpoch(s);
        }
        if (recordTrace_) {
            double line_bytes = static_cast<double>(kLineSize);
            auto bw = [&](std::uint64_t lines) {
                return static_cast<double>(lines) * line_bytes / dt / kGB;
            };
            trace_.record("dram_read_bw", now_, bw(d.dramRead));
            trace_.record("dram_write_bw", now_, bw(d.dramWrite));
            trace_.record("nvram_read_bw", now_, bw(d.nvramRead));
            trace_.record("nvram_write_bw", now_, bw(d.nvramWrite));
            double demand = static_cast<double>(d.demand());
            if (demand > 0) {
                trace_.record("tag_hit_frac", now_,
                              static_cast<double>(d.tagHit) / demand);
                trace_.record("tag_miss_clean_frac", now_,
                              static_cast<double>(d.tagMissClean) /
                                  demand);
                trace_.record("tag_miss_dirty_frac", now_,
                              static_cast<double>(d.tagMissDirty) /
                                  demand);
                trace_.record("ddo_hit_frac", now_,
                              static_cast<double>(d.ddoHit) / demand);
            }
            trace_.record("demand_bw", now_,
                          static_cast<double>(epochDemandBytes_) / dt /
                              kGB);
            if (refresh) {
                // Refresh channels (only with refresh on, so
                // refresh-off traces stay bit-identical).
                trace_.record("refresh_slots", now_,
                              static_cast<double>(d.refreshSlots));
                trace_.record("maintenance_stall_ns", now_,
                              static_cast<double>(d.maintenanceStallNs));
            }
        }
    }

    epochDemandBytes_ = 0;
    epochLatencyWork_ = 0;
    epochLoadBytes_ = 0;
    epochNtStoreBytes_ = 0;
    epochDmaBytes_ = 0;
    epochComputeFloor_ = 0;
}

void
MemorySystem::quiesce()
{
    llc_.flush(
        [this](Addr line) { issue(MemRequestKind::LlcWrite, line, 0); });
    for (auto &ch : channels_)
        ch.drainBuffers();
    finishEpoch();
}

void
MemorySystem::resetCounters()
{
    finishEpoch();
    double prior_now = now_;
    for (auto &ch : channels_)
        ch.counters() = PerfCounters{};
    llc_.resetStats();
    lastSample_ = PerfCounters{};
    trace_ = TimeSeries{};
    now_ = 0;
    if (obs_)
        obs_->onCountersReset(prior_now);
    if (tel_)
        tel_->onCountersReset();
}

PerfCounters
MemorySystem::counters() const
{
    PerfCounters total;
    for (const auto &ch : channels_)
        total += ch.counters();
    return total;
}

double
MemorySystem::nvramWriteAmplification() const
{
    Bytes demand = 0, media = 0;
    for (const auto &ch : channels_) {
        const NvramEpoch &t = ch.nvram().total();
        demand += t.demandWrites * kLineSize;
        media += t.mediaWriteBytes();
    }
    // Include the still-buffered current epoch as well.
    for (const auto &ch : channels_) {
        const NvramEpoch &e = ch.nvram().epoch();
        demand += e.demandWrites * kLineSize;
        media += e.mediaWriteBytes();
    }
    if (demand == 0)
        return 0;
    return static_cast<double>(media) / static_cast<double>(demand);
}

std::unique_ptr<MemorySystem>
makeSystem(const SystemConfig &config)
{
    config.validate();
    return std::make_unique<MemorySystem>(config);
}

} // namespace nvsim
