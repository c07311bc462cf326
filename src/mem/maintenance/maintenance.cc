#include "mem/maintenance/maintenance.hh"

#include <cmath>

#include "core/logging.hh"

namespace nvsim
{

void
MaintenanceConfig::validate() const
{
    if (refresh.trefi < 0)
        fatal("maintenance refresh tREFI = %g is a negative cadence",
              refresh.trefi);
    if (refresh.trfc < 0)
        fatal("maintenance refresh tRFC = %g is a negative cadence",
              refresh.trfc);
    if (refresh.enabled()) {
        if (refresh.trfc <= 0)
            fatal("maintenance refresh tRFC must be positive when "
                  "refresh is enabled");
        if (refresh.trfc >= refresh.trefi)
            fatal("maintenance refresh tRFC %g >= tREFI %g: the DIMM "
                  "would spend all bank time refreshing",
                  refresh.trfc, refresh.trefi);
    }
    if (scrub.interval < 0)
        fatal("maintenance scrub interval = %g is a negative cadence",
              scrub.interval);
    auto rate = [](double r, const char *name) {
        if (r < 0 || r > 1)
            fatal("maintenance scrub rate %s = %g outside [0, 1]", name,
                  r);
    };
    rate(scrub.correctable, "correctable");
    rate(scrub.uncorrectable, "uncorrectable");
    if (scrub.correctable + scrub.uncorrectable > 1)
        fatal("maintenance scrub correctable + uncorrectable = %g "
              "exceeds 1",
              scrub.correctable + scrub.uncorrectable);
    if (scrub.enabled() && scrub.retireThreshold == 0)
        fatal("maintenance scrub retire threshold must be at least 1 "
              "(threshold 0 would retire frames before any error)");
    if (rowhammer.threshold > 0) {
        if (rowhammer.trackerEntries == 0)
            fatal("maintenance rowhammer trackerEntries must be "
                  "positive");
        if (rowhammer.rowBytes < kLineSize)
            fatal("maintenance rowhammer rowBytes %llu below one %llu B "
                  "line",
                  static_cast<unsigned long long>(rowhammer.rowBytes),
                  static_cast<unsigned long long>(kLineSize));
        if (rowhammer.blastRadius == 0)
            fatal("maintenance rowhammer blastRadius must be positive");
        if (rowhammer.refreshLatency < 0)
            fatal("maintenance rowhammer refreshLatency must be "
                  "nonnegative");
        if (rowhammer.window <= 0)
            fatal("maintenance rowhammer window = %g is not a positive "
                  "cadence",
                  rowhammer.window);
    }
}

unsigned
RowTracker::activate(std::uint64_t row, std::uint64_t n)
{
    if (n == 0 || config_.threshold == 0)
        return 0;

    auto it = counts_.find(row);
    if (it == counts_.end()) {
        if (counts_.size() <
            static_cast<std::size_t>(config_.trackerEntries)) {
            // A new row enters at the spillover floor: its true count
            // cannot exceed spillover + n, and assuming the maximum
            // keeps the tracker free of false negatives.
            it = counts_.emplace(row, spillover_).first;
        } else {
            // Table full: the activations land in the spillover. When
            // the spillover overtakes the smallest tracked count, that
            // row can no longer be distinguished from the untracked
            // mass — swap it out (ties go to the smallest row id: the
            // map iterates in row order and only a strictly smaller
            // count replaces the candidate).
            spillover_ += n;
            auto min_it = counts_.begin();
            for (auto i = counts_.begin(); i != counts_.end(); ++i) {
                if (i->second < min_it->second)
                    min_it = i;
            }
            if (spillover_ < min_it->second)
                return 0;
            counts_.erase(min_it);
            it = counts_.emplace(row, spillover_).first;
            // The count was already credited to the spillover; fall
            // through to the threshold check on the adopted value.
            n = 0;
        }
    }

    it->second += n;
    if (it->second < config_.threshold)
        return 0;
    unsigned triggers =
        static_cast<unsigned>(it->second / config_.threshold);
    // Mitigation refreshes the neighbors and resets the row's counter;
    // keep the remainder, as a hardware counter reset does.
    it->second %= config_.threshold;
    return triggers;
}

void
RowTracker::resetWindow()
{
    counts_.clear();
    spillover_ = 0;
}

ScrubEngine::ScrubEngine(const ScrubConfig &config, Bytes capacity,
                         std::uint64_t seed, unsigned channel)
    : config_(config), capacity_(capacity)
{
    // Derive an independent stream per channel from the master seed
    // (same construction as FaultPlan, different master, so the scrub
    // stream never perturbs fault-injection replay).
    std::uint64_t x = seed;
    splitmix64(x);
    x ^= 0x9E6C63D0876A3F6Bull * (channel + 1);
    rng_ = Rng(splitmix64(x));
}

ScrubOutcome
ScrubEngine::tick()
{
    ScrubOutcome o;
    if (!config_.enabled() || capacity_ < kLineSize)
        return o;
    pending_ += 1.0;
    if (pending_ < config_.interval)
        return o;
    pending_ -= config_.interval;
    // At most one patrol read per demand request: a sub-1 interval
    // saturates instead of queueing an unbounded backlog.
    if (pending_ > config_.interval)
        pending_ = config_.interval;

    o.read = true;
    o.frame = walk_;
    walk_ += kLineSize;
    if (walk_ + kLineSize > capacity_)
        walk_ = 0;

    double u = rng_.uniform();
    if (u < config_.uncorrectable) {
        // Escalate: the frame's data is lost, and the frame itself is
        // suspect — map it out while the spare budget lasts.
        o.uncorrectableError = true;
        if (retired_ < config_.retireCapacity) {
            o.retire = true;
            ++retired_;
            ceCount_.erase(o.frame);
        }
    } else if (u < config_.uncorrectable + config_.correctable) {
        o.correctableError = true;
        unsigned &ce = ceCount_[o.frame];
        if (++ce >= config_.retireThreshold &&
            retired_ < config_.retireCapacity) {
            // Repeat-CE ladder: the frame is failing; retire it before
            // the errors become uncorrectable.
            o.retire = true;
            ++retired_;
            ceCount_.erase(o.frame);
        }
    }
    return o;
}

MaintenanceEngine::MaintenanceEngine(const MaintenanceConfig &config,
                                     Bytes dramCapacity, unsigned channel)
    : config_(config), capacity_(dramCapacity), channel_(channel),
      enabled_(config.enabled()),
      scrub_(config.scrub, dramCapacity, config.seed, channel),
      tracker_(config.rowhammer)
{
}

unsigned
MaintenanceEngine::noteActivation(Addr local, std::uint64_t n)
{
    if (!config_.rowhammer.enabled() || n == 0 || capacity_ == 0)
        return 0;
    // The cache (and the 1LM DRAM pool) fold the address space onto
    // the DIMM's frames, so the activated row is the frame's row.
    std::uint64_t row = (local % capacity_) / config_.rowhammer.rowBytes;
    unsigned triggers = tracker_.activate(row, n);
    if (triggers) {
        targetedTime_ += static_cast<double>(triggers) *
                         static_cast<double>(config_.rowhammer.blastRadius) *
                         config_.rowhammer.refreshLatency;
    }
    return triggers;
}

double
MaintenanceEngine::drainTargetedTime()
{
    double t = targetedTime_;
    targetedTime_ = 0;
    return t;
}

double
MaintenanceEngine::drainScrubTime()
{
    double t = scrubTime_;
    scrubTime_ = 0;
    return t;
}

std::uint64_t
MaintenanceEngine::closeEpoch(double dt)
{
    if (!enabled_ || dt <= 0)
        return 0;
    std::uint64_t slots = 0;
    if (config_.refresh.enabled()) {
        refreshCarry_ += dt / config_.refresh.trefi;
        slots = static_cast<std::uint64_t>(refreshCarry_);
        refreshCarry_ -= static_cast<double>(slots);
    }
    if (config_.rowhammer.enabled()) {
        windowClock_ += dt;
        if (windowClock_ >= config_.rowhammer.window) {
            windowClock_ =
                std::fmod(windowClock_, config_.rowhammer.window);
            tracker_.resetWindow();
        }
    }
    return slots;
}

void
MaintenanceEngine::reset()
{
    scrub_ = ScrubEngine(config_.scrub, capacity_, config_.seed,
                         channel_);
    tracker_ = RowTracker(config_.rowhammer);
    targetedTime_ = 0;
    scrubTime_ = 0;
    refreshCarry_ = 0;
    windowClock_ = 0;
}

} // namespace nvsim
