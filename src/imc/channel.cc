#include "imc/channel.hh"

#include <algorithm>
#include <cmath>

#include "core/logging.hh"
#include "obs/stats.hh"

namespace nvsim
{

const char *
memoryModeName(MemoryMode mode)
{
    return mode == MemoryMode::OneLm ? "1LM" : "2LM";
}

ChannelController::ChannelController(const ChannelParams &params,
                                     MemoryMode mode)
    : params_(params), mode_(mode), dram_(params.dram),
      nvram_(params.nvram),
      cache_(makeCachePolicy(
          DramCacheParams{params.dram.capacity, params.ddo,
                          params.cacheWays, params.insertOnWriteMiss},
          params.policy)),
      lat_(deviceLatencies(params)), maint_(params.maintenance)
{
    // A demand access that lands during a REF waits out the residual
    // tRFC; fold the expected stall into the DRAM load-to-use latency
    // once (exactly zero when refresh is off). The queued controller
    // models refresh as per-bank occupancy windows instead, so folding
    // the epoch-mean stall there would bill refresh twice.
    if (maint_.enabled() && !params_.controller.queued())
        lat_.dram += maint_.refreshDemandStall();
    if (params_.controller.queued()) {
        txq_ = std::make_unique<ChannelTxQueue>(
            params_.controller, params_.busBandwidth,
            params_.maintenance.refresh);
    }
}

AccessResult
ChannelController::handle(const MemRequest &req, MemPool pool)
{
    return mode_ == MemoryMode::TwoLm ? handle2lm(req)
                                      : handle1lm(req, pool);
}

double
ChannelController::handleFast(MemRequestKind kind, Addr addr,
                              std::uint16_t thread, MemPool pool)
{
    if (mode_ == MemoryMode::TwoLm) {
        CacheResult cr = kind == MemRequestKind::LlcRead
                             ? cache_->read(addr)
                             : cache_->write(addr);
        dram_.read(cr.actions.dramReads);
        dram_.write(cr.actions.dramWrites);
        if (cr.filled) {
            nvram_.read(cr.fill, thread);
            ++epochMisses_;
        }
        if (cr.wroteBack)
            nvram_.write(cr.victim, thread);
        counters_.addOutcome(kind, cr.outcome);
        counters_.addActions(cr.actions);
        counters_.missBypass += cr.bypassed;
        counters_.sramTagLookups += cr.tagsInSram;
        return cache_->demandLatency(kind, cr, lat_);
    }

    // 1LM: one direct device access.
    counters_.addOutcome(kind, CacheOutcome::Uncached);
    if (kind == MemRequestKind::LlcRead) {
        if (pool == MemPool::Dram) {
            dram_.read(1);
            counters_.dramRead += 1;
            return lat_.dram;
        }
        nvram_.read(addr, thread);
        counters_.nvramRead += 1;
        return params_.nvram.readLatency;
    }
    if (pool == MemPool::Dram) {
        dram_.write(1);
        counters_.dramWrite += 1;
        return lat_.dram;
    }
    nvram_.write(addr, thread);
    counters_.nvramWrite += 1;
    return params_.nvram.writeLatency;
}

double
ChannelController::handleFastRun1lm(MemRequestKind kind, Addr addr,
                                    std::uint64_t lines,
                                    std::uint16_t thread, MemPool pool)
{
    if (kind == MemRequestKind::LlcRead) {
        counters_.llcReads += lines;
        if (pool == MemPool::Dram) {
            dram_.read(lines);
            counters_.dramRead += lines;
            return lat_.dram;
        }
        nvram_.readRun(addr, lines);
        counters_.nvramRead += lines;
        return params_.nvram.readLatency;
    }
    counters_.llcWrites += lines;
    if (pool == MemPool::Dram) {
        dram_.write(lines);
        counters_.dramWrite += lines;
        return lat_.dram;
    }
    nvram_.writeRun(addr, lines, thread);
    counters_.nvramWrite += lines;
    return params_.nvram.writeLatency;
}

DeviceLatencies
deviceLatencies(const ChannelParams &params)
{
    return DeviceLatencies{params.dram.latency, params.nvram.readLatency,
                           params.nvram.writeLatency};
}

CausalBreakdown
causalBreakdown2lm(MemRequestKind kind, const CacheResult &cr,
                   const ChannelParams &params)
{
    return tagEccBreakdown(kind, cr, deviceLatencies(params));
}

AccessResult
ChannelController::handle2lm(const MemRequest &req)
{
    AccessResult result;
    CacheResult cr = req.kind == MemRequestKind::LlcRead
                         ? cache_->read(req.addr)
                         : cache_->write(req.addr);
    dram_.read(cr.actions.dramReads);
    dram_.write(cr.actions.dramWrites);
    if (cr.filled)
        nvram_.read(cr.fill, req.thread);
    if (cr.wroteBack)
        nvram_.write(cr.victim, req.thread);

    counters_.addOutcome(req.kind, cr.outcome);
    counters_.addActions(cr.actions);
    counters_.missBypass += cr.bypassed;
    counters_.sramTagLookups += cr.tagsInSram;
    if (cr.filled)
        ++epochMisses_;

    result.outcome = cr.outcome;
    result.actions = cr.actions;
    if (req.traced)
        result.breakdown = cache_->breakdown(req.kind, cr, lat_);
    result.latency = cache_->demandLatency(req.kind, cr, lat_);
    return result;
}

AccessResult
ChannelController::handle1lm(const MemRequest &req, MemPool pool)
{
    AccessResult result;
    result.outcome = CacheOutcome::Uncached;
    counters_.addOutcome(req.kind, CacheOutcome::Uncached);

    if (req.kind == MemRequestKind::LlcRead) {
        if (pool == MemPool::Dram) {
            dram_.read(1);
            counters_.dramRead += 1;
            result.actions.dramReads = 1;
            result.latency = lat_.dram;
        } else {
            nvram_.read(req.addr, req.thread);
            counters_.nvramRead += 1;
            result.actions.nvramReads = 1;
            result.latency = params_.nvram.readLatency;
        }
    } else {
        if (pool == MemPool::Dram) {
            dram_.write(1);
            counters_.dramWrite += 1;
            result.actions.dramWrites = 1;
            result.latency = lat_.dram;
        } else {
            nvram_.write(req.addr, req.thread);
            counters_.nvramWrite += 1;
            result.actions.nvramWrites = 1;
            result.latency = params_.nvram.writeLatency;
        }
    }
    if (req.traced) {
        // 1LM: no cache in the path, one direct device access.
        result.breakdown.add(AccessCause::DirectAccess, pool,
                             result.latency);
    }
    return result;
}

void
ChannelController::drainBuffers()
{
    nvram_.flushWpq();
}

ChannelEpoch
ChannelController::drainEpoch()
{
    ChannelEpoch e;
    e.dram = dram_.drainEpoch();
    e.nvram = nvram_.drainEpoch();
    e.misses = epochMisses_;
    epochMisses_ = 0;
    return e;
}

bool
ChannelController::willAccept(TransactionKind kind) const
{
    return !txq_ || txq_->willAccept(kind);
}

void
ChannelController::enqueue(const Transaction &tx)
{
    if (!txq_)
        fatal("ChannelController::enqueue without a queued controller "
              "(scheduler 'analytic'); configure controller.scheduler");
    txq_->enqueue(tx);
}

void
ChannelController::tick(double until)
{
    if (txq_)
        txq_->tick(until);
}

void
ChannelController::setCompletionHandler(CompletionHandler handler)
{
    if (txq_)
        txq_->setCompletionHandler(std::move(handler));
}

void
ChannelController::drainQueues()
{
    if (!txq_)
        return;
    txq_->drainAll();
    TxQueueStats s = txq_->takeStats();
    if (s.readQueueWait > 0) {
        counters_.queueWaitNs += static_cast<std::uint64_t>(
            std::llround(s.readQueueWait * 1e9));
    }
    counters_.bankConflicts += s.bankConflicts;
    counters_.rowBufferHits += s.rowBufferHits;
    counters_.writeDrains += s.writeDrains;
    txq_->resetEpoch();
}

double
ChannelController::epochTime(const ChannelEpoch &epoch) const
{
    // Shared DDR4/DDR-T bus: every DRAM CAS and every NVRAM bus
    // transaction crosses it.
    double bus_bytes = static_cast<double>(epoch.dram.bytes()) +
                       static_cast<double>(epoch.nvram.demandBytes());
    double t_bus = bus_bytes / params_.busBandwidth;

    // DRAM device throughput. Refresh blocks a duty fraction
    // tRFC/tREFI of every second, so the demand traffic must fit in
    // what is left.
    double t_dram = static_cast<double>(epoch.dram.bytes()) /
                    params_.dram.bandwidth;
    if (maint_.enabled())
        t_dram /= 1.0 - maint_.refreshDuty();

    // NVRAM media: reads and writes share the media controller, so
    // their service times add. Write bandwidth degrades with stream
    // count (XPBuffer contention).
    double write_bw = params_.nvram.writeBandwidth *
                      nvram_.writeEfficiency(epoch.nvram.writerStreams);
    double t_media =
        static_cast<double>(epoch.nvram.mediaReadBytes()) /
            params_.nvram.readBandwidth +
        static_cast<double>(epoch.nvram.mediaWriteBytes()) / write_bw;

    // 2LM miss handler occupancy: a bounded number of outstanding
    // misses, each holding an entry for the serial tag-check + fetch.
    double t_mshr = 0;
    if (params_.missHandlerEntries > 0) {
        t_mshr = static_cast<double>(epoch.misses) *
                 cache_->missServiceTime(lat_) /
                 static_cast<double>(params_.missHandlerEntries);
    }

    return std::max({t_bus, t_dram, t_media, t_mshr});
}

void
ChannelController::noteRefreshEpoch(double dt)
{
    std::uint64_t slots = maint_.closeEpoch(dt);
    if (slots == 0)
        return;
    counters_.refreshSlots += slots;
    counters_.maintenanceStallNs += static_cast<std::uint64_t>(
        std::llround(static_cast<double>(slots) *
                     maint_.config().refresh.trfc * 1e9));
}

void
ChannelController::regStats(obs::Group &g)
{
    obs::Group &ctr = g.child("counters");
    counters_.forEachField(
        [&](const char *name, const char *desc, std::uint64_t &v) {
            ctr.formula(name, desc,
                        [&v] { return static_cast<double>(v); });
        });
    g.formula("amplification", "device accesses per demand request",
              [this] { return counters_.amplification(); });

    obs::Group &cache = g.child("cache");
    cache.formula("num_sets", "DRAM cache sets on this channel",
                  [this] {
                      return static_cast<double>(cache_->numSets());
                  });
    cache.formula("ways", "DRAM cache associativity",
                  [this] { return static_cast<double>(cache_->ways()); });

    obs::Group &dram = g.child("dram");
    dram.formula("cas_reads", "total 64 B DRAM read transactions",
                 [this] {
                     return static_cast<double>(dram_.total().casReads);
                 });
    dram.formula("cas_writes", "total 64 B DRAM write transactions",
                 [this] {
                     return static_cast<double>(dram_.total().casWrites);
                 });

    obs::Group &nvram = g.child("nvram");
    nvram.formula("demand_reads", "total 64 B NVRAM bus reads", [this] {
        return static_cast<double>(nvram_.total().demandReads);
    });
    nvram.formula("demand_writes", "total 64 B NVRAM bus writes",
                  [this] {
                      return static_cast<double>(
                          nvram_.total().demandWrites);
                  });
    nvram.formula("media_read_blocks", "total 256 B media reads",
                  [this] {
                      return static_cast<double>(
                          nvram_.total().mediaReadBlocks);
                  });
    nvram.formula("media_write_blocks", "total 256 B media writes",
                  [this] {
                      return static_cast<double>(
                          nvram_.total().mediaWriteBlocks);
                  });
    nvram.formula("read_amplification",
                  "media bytes read per demand byte read",
                  [this] { return nvram_.readAmplification(); });
    nvram.formula("write_amplification",
                  "media bytes written per demand byte written",
                  [this] { return nvram_.writeAmplification(); });

    if (maint_.enabled()) {
        obs::Group &maint = g.child("maintenance");
        maint.formula("refresh_duty",
                      "fraction of bank time lost to tREFI/tRFC refresh",
                      [this] { return maint_.refreshDuty(); });
    }

    if (txq_) {
        obs::Group &queue = g.child("queue");
        queue.formula("read_depth", "read-queue occupancy", [this] {
            return static_cast<double>(txq_->readDepth());
        });
        queue.formula("write_depth", "WPQ occupancy", [this] {
            return static_cast<double>(txq_->writeDepth());
        });
        queue.formula("draining",
                      "1 while a WPQ drain burst is active", [this] {
                          return txq_->draining() ? 1.0 : 0.0;
                      });
    }
}

void
ChannelController::reset()
{
    cache_->invalidateAll();
    counters_ = PerfCounters{};
    epochMisses_ = 0;
    maint_.reset();
    if (txq_) {
        txq_->drainAll();
        txq_->takeStats();
        txq_->resetEpoch();
    }
    drainEpoch();
    drainBuffers();
    drainEpoch();
}

} // namespace nvsim
