#include "mem/nvram.hh"

#include <algorithm>

#include "core/logging.hh"

namespace nvsim
{

NvramDevice::NvramDevice(const NvramParams &params)
    : params_(params), readBuffer_(params.readBufferEntries),
      wpq_(params.wpqEntries)
{
    if (params_.readBufferEntries == 0 || params_.wpqEntries == 0)
        fatal("NVRAM buffers need at least one entry");
    readBuffer_.order.reserve(params_.readBufferEntries + 1);
    wpq_.order.reserve(params_.wpqEntries + 1);
}

bool
NvramDevice::BlockLru::touch(Addr block, Addr &evicted, bool &did_evict)
{
    did_evict = false;
    // Sequential streams touch the same block several times in a row:
    // it is already most recently used, so skip the linear scan.
    if (!order.empty() && blockOf(order.back()) == block)
        return true;
    auto it = std::find_if(order.begin(), order.end(), [block](Addr e) {
        return blockOf(e) == block;
    });
    if (it != order.end()) {
        // Move to most-recently-used position, fill mask and all.
        Addr entry = *it;
        order.erase(it);
        order.push_back(entry);
        return true;
    }
    order.push_back(block);
    if (order.size() > capacity) {
        evicted = blockOf(order.front());
        order.erase(order.begin());
        did_evict = true;
    }
    return false;
}

void
NvramDevice::noteWriter(std::uint16_t thread)
{
    if (thread >= writerStamp_.size())
        writerStamp_.resize(thread + 1, 0);
    if (writerStamp_[thread] != writerEpochId_) {
        writerStamp_[thread] = writerEpochId_;
        ++epoch_.writerStreams;
    }
}

void
NvramDevice::mediaWrite(Addr block)
{
    (void)block;
    ++epoch_.mediaWriteBlocks;
}

MediaFault
NvramDevice::read(Addr addr, std::uint16_t thread)
{
    (void)thread;
    ++epoch_.demandReads;
    Addr block = mediaBlockBase(addr);
    Addr evicted;
    bool did_evict;
    if (!readBuffer_.touch(block, evicted, did_evict)) {
        // Buffer miss: the controller reads the whole 256 B media block.
        ++epoch_.mediaReadBlocks;
    }
}

MediaFault
NvramDevice::write(Addr addr, std::uint16_t thread)
{
    noteWriter(thread);
    ++epoch_.demandWrites;
    Addr block = mediaBlockBase(addr);
    unsigned slot =
        static_cast<unsigned>((addr - block) / kLineSize) & 0x3;

    Addr evicted;
    bool did_evict;
    wpq_.touch(block, evicted, did_evict);
    if (did_evict) {
        // A partially (or fully) merged block is forced to media early.
        mediaWrite(evicted);
    }
    mergeWpqSlot(slot);
}

bool
NvramDevice::mergeWpqSlot(unsigned slot)
{
    Addr &entry = wpq_.order.back();
    entry |= Addr{1} << slot;
    if ((entry & BlockLru::kFullFill) != BlockLru::kFullFill)
        return false;
    // Fully merged 256 B block: retire it with one media write.
    mediaWrite(BlockLru::blockOf(entry));
    wpq_.order.pop_back();
    return true;
}

void
NvramDevice::readRun(Addr addr, std::uint64_t lines)
{
    // Per-line, consecutive reads of one media block are one buffer
    // miss followed by hits at the MRU position; walking the distinct
    // blocks reproduces that state exactly with one touch per block.
    epoch_.demandReads += lines;
    Addr block = mediaBlockBase(addr);
    Addr last = mediaBlockBase(addr + (lines - 1) * kLineSize);
    Addr evicted;
    bool did_evict;
    for (; block <= last; block += kMediaBlockSize) {
        if (!readBuffer_.touch(block, evicted, did_evict))
            ++epoch_.mediaReadBlocks;
    }
}

void
NvramDevice::writeRun(Addr addr, std::uint64_t lines,
                      std::uint16_t thread)
{
    noteWriter(thread);
    epoch_.demandWrites += lines;

    Addr a = addr;
    std::uint64_t left = lines;
    Addr evicted;
    bool did_evict;
    while (left) {
        Addr block = mediaBlockBase(a);
        unsigned slot =
            static_cast<unsigned>((a - block) / kLineSize) & 0x3;
        unsigned count = static_cast<unsigned>(
            std::min<std::uint64_t>(left, 4 - slot));

        wpq_.touch(block, evicted, did_evict);
        if (did_evict)
            mediaWrite(evicted);
        // Merge the segment's slots one at a time: a rewrite can
        // complete the block mid-segment (stale partial fill from an
        // earlier pass), in which case the per-line path retires it
        // and re-opens the block for the remaining slots.
        for (unsigned i = 0; i < count; ++i, ++slot) {
            if (!mergeWpqSlot(slot) || i + 1 == count)
                continue;
            wpq_.touch(block, evicted, did_evict);
            if (did_evict)
                mediaWrite(evicted);
        }
        a += static_cast<Addr>(count) * kLineSize;
        left -= count;
    }
}

void
NvramDevice::flushWpq()
{
    wpq_.drain([this](Addr block) { mediaWrite(block); });
}

NvramEpoch
NvramDevice::drainEpoch()
{
    NvramEpoch e = epoch_;
    total_.demandReads += e.demandReads;
    total_.demandWrites += e.demandWrites;
    total_.mediaReadBlocks += e.mediaReadBlocks;
    total_.mediaWriteBlocks += e.mediaWriteBlocks;
    total_.writerStreams = std::max(total_.writerStreams, e.writerStreams);
    epoch_ = NvramEpoch{};
    ++writerEpochId_;  // invalidates every writer stamp in O(1)
    return e;
}

double
NvramDevice::writeEfficiency(std::uint64_t streams) const
{
    double over = static_cast<double>(
        streams > params_.writeContentionKnee
            ? streams - params_.writeContentionKnee
            : 0);
    return 1.0 / (1.0 + params_.writeContentionAlpha * over);
}

double
NvramDevice::writeAmplification() const
{
    Bytes demand = total_.demandWrites * kLineSize;
    if (demand == 0)
        return 0;
    return static_cast<double>(total_.mediaWriteBytes()) /
           static_cast<double>(demand);
}

double
NvramDevice::readAmplification() const
{
    Bytes demand = total_.demandReads * kLineSize;
    if (demand == 0)
        return 0;
    return static_cast<double>(total_.mediaReadBytes()) /
           static_cast<double>(demand);
}

} // namespace nvsim
