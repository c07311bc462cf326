/**
 * @file
 * Tests for the Optane DIMM model: media-block amplification, the
 * read-combine buffer, the write-pending queue merge behavior and the
 * write-stream contention curve.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <vector>

#include "core/rng.hh"
#include "mem/nvram.hh"

using namespace nvsim;

namespace
{

NvramParams
smallParams()
{
    NvramParams p;
    p.readBufferEntries = 4;
    p.wpqEntries = 4;
    return p;
}

/**
 * Naive reference for the device's two buffers, one 64 B line at a
 * time: a std::list LRU per buffer and a std::map from media block to
 * WPQ fill mask. Bulk runs are defined as the per-line loop.
 */
class RefNvram
{
  public:
    RefNvram(unsigned read_entries, unsigned wpq_entries)
        : readCap_(read_entries), wpqCap_(wpq_entries)
    {
    }

    void
    read(Addr addr)
    {
        Addr block = mediaBlockBase(addr);
        if (!touch(readLru_, block)) {
            ++mediaReads;
            if (readLru_.size() > readCap_)
                readLru_.pop_front();
        }
    }

    void
    write(Addr addr)
    {
        Addr block = mediaBlockBase(addr);
        unsigned slot = static_cast<unsigned>((addr - block) / kLineSize);
        if (!touch(wpq_, block)) {
            fill_[block] = 0;
            if (wpq_.size() > wpqCap_) {
                fill_.erase(wpq_.front());
                wpq_.pop_front();
                ++mediaWrites;
            }
        }
        if ((fill_[block] |= 1u << slot) == 0xF) {
            wpq_.remove(block);
            fill_.erase(block);
            ++mediaWrites;
        }
    }

    void
    flush()
    {
        mediaWrites += wpq_.size();
        wpq_.clear();
        fill_.clear();
    }

    std::uint64_t mediaReads = 0;
    std::uint64_t mediaWrites = 0;

  private:
    /** Move @p block to the MRU end; false (and appended) on miss. */
    static bool
    touch(std::list<Addr> &lru, Addr block)
    {
        auto it = std::find(lru.begin(), lru.end(), block);
        bool hit = it != lru.end();
        if (hit)
            lru.erase(it);
        lru.push_back(block);
        return hit;
    }

    unsigned readCap_;
    unsigned wpqCap_;
    std::list<Addr> readLru_;
    std::list<Addr> wpq_;
    std::map<Addr, unsigned> fill_;
};

} // namespace

TEST(NvramDevice, MatchesNaiveReferenceUnderRandomMixes)
{
    for (unsigned streams : {1u, 2u, 3u, 5u, 8u, 16u, 32u}) {
        Rng rng(1000 + streams);
        NvramParams p;
        p.readBufferEntries = 1 + static_cast<unsigned>(rng.below(16));
        p.wpqEntries = 1 + static_cast<unsigned>(rng.below(16));
        NvramDevice dev(p);
        RefNvram ref(p.readBufferEntries, p.wpqEntries);
        std::uint64_t media_reads = 0;
        std::uint64_t media_writes = 0;

        // Each stream walks its own region, mostly forward, sometimes
        // stepping back a few lines so blocks reopen with stale fills.
        std::vector<Addr> cursor(streams);
        for (unsigned s = 0; s < streams; ++s)
            cursor[s] = static_cast<Addr>(s) * kMiB;
        for (int step = 0; step < 20000; ++step) {
            unsigned s = static_cast<unsigned>(rng.below(streams));
            auto thread = static_cast<std::uint16_t>(s);
            if (rng.below(8) == 0 && cursor[s] >= s * kMiB + 8 * kLineSize)
                cursor[s] -= (1 + rng.below(8)) * kLineSize;
            Addr a = cursor[s];
            std::uint64_t lines = 1 + rng.below(12);
            switch (rng.below(16)) {
              case 0: case 1: case 2: case 3:
                dev.read(a, thread);
                ref.read(a);
                lines = 1;
                break;
              case 4: case 5: case 6: case 7: case 8:
                dev.write(a, thread);
                ref.write(a);
                lines = 1;
                break;
              case 9: case 10:
                dev.readRun(a, lines);
                for (std::uint64_t i = 0; i < lines; ++i)
                    ref.read(a + i * kLineSize);
                break;
              case 11: case 12: case 13:
                dev.writeRun(a, lines, thread);
                for (std::uint64_t i = 0; i < lines; ++i)
                    ref.write(a + i * kLineSize);
                break;
              case 14:
                dev.flushWpq();
                ref.flush();
                lines = 0;
                break;
              default: {
                NvramEpoch e = dev.drainEpoch();
                media_reads += e.mediaReadBlocks;
                media_writes += e.mediaWriteBlocks;
                lines = 0;
                break;
              }
            }
            cursor[s] += lines * kLineSize;
            ASSERT_EQ(media_reads + dev.epoch().mediaReadBlocks,
                      ref.mediaReads)
                << streams << " streams, step " << step;
            ASSERT_EQ(media_writes + dev.epoch().mediaWriteBlocks,
                      ref.mediaWrites)
                << streams << " streams, step " << step;
        }
    }
}

TEST(NvramDevice, WriteRunReopensStaleBlockMidSegment)
{
    NvramDevice dev(smallParams());
    RefNvram ref(4, 4);
    // Lines 1-3 of block 0 leave a stale partial fill behind.
    for (Addr a = kLineSize; a < 4 * kLineSize; a += kLineSize) {
        dev.write(a, 0);
        ref.write(a);
    }
    EXPECT_EQ(dev.epoch().mediaWriteBlocks, 0u);
    // A run over the whole block completes it at its first line,
    // retires it, then reopens it for lines 1-3.
    dev.writeRun(0, 4, 0);
    for (Addr a = 0; a < 4 * kLineSize; a += kLineSize)
        ref.write(a);
    EXPECT_EQ(dev.epoch().mediaWriteBlocks, 1u);
    EXPECT_EQ(ref.mediaWrites, 1u);
    // The reopened block holds lines 1-3: line 0 completes it again.
    dev.write(0, 0);
    ref.write(0);
    EXPECT_EQ(dev.epoch().mediaWriteBlocks, 2u);
    EXPECT_EQ(ref.mediaWrites, 2u);
    dev.flushWpq();
    ref.flush();
    EXPECT_EQ(dev.epoch().mediaWriteBlocks, ref.mediaWrites);
}

TEST(NvramDevice, SequentialReadsCoalescePerMediaBlock)
{
    NvramDevice dev(smallParams());
    // 16 sequential 64 B reads span 4 media blocks.
    for (Addr a = 0; a < 16 * kLineSize; a += kLineSize)
        dev.read(a, 0);
    auto e = dev.drainEpoch();
    EXPECT_EQ(e.demandReads, 16u);
    EXPECT_EQ(e.mediaReadBlocks, 4u);
    // Demand bytes equal media bytes: amplification 1.
    EXPECT_EQ(e.demandBytes(), e.mediaReadBytes());
}

TEST(NvramDevice, RandomSmallReadsAmplifyFourTimes)
{
    NvramDevice dev(smallParams());
    // Strided reads, one line per distinct media block, far apart so
    // the 4-entry buffer cannot help.
    for (int i = 0; i < 64; ++i)
        dev.read(static_cast<Addr>(i) * 8 * kMediaBlockSize, 0);
    auto e = dev.drainEpoch();
    EXPECT_EQ(e.demandReads, 64u);
    EXPECT_EQ(e.mediaReadBlocks, 64u);
    EXPECT_EQ(e.mediaReadBytes(), 4 * e.demandBytes());
}

TEST(NvramDevice, RepeatedReadHitsBuffer)
{
    NvramDevice dev(smallParams());
    dev.read(0, 0);
    dev.read(64, 0);   // same media block
    dev.read(128, 0);  // same media block
    auto e = dev.drainEpoch();
    EXPECT_EQ(e.mediaReadBlocks, 1u);
}

TEST(NvramDevice, SequentialWritesMergeIntoMediaBlocks)
{
    NvramDevice dev(smallParams());
    // One full pass of 64 sequential lines = 16 media blocks, each
    // fully merged: write amplification 1.
    for (Addr a = 0; a < 64 * kLineSize; a += kLineSize)
        dev.write(a, 0);
    dev.flushWpq();
    auto e = dev.drainEpoch();
    EXPECT_EQ(e.demandWrites, 64u);
    EXPECT_EQ(e.mediaWriteBlocks, 16u);
    EXPECT_EQ(e.mediaWriteBytes(), e.demandBytes());
}

TEST(NvramDevice, RandomSmallWritesAmplifyFourTimes)
{
    NvramDevice dev(smallParams());
    for (int i = 0; i < 64; ++i)
        dev.write(static_cast<Addr>(i) * 8 * kMediaBlockSize, 0);
    dev.flushWpq();
    auto e = dev.drainEpoch();
    EXPECT_EQ(e.demandWrites, 64u);
    // Each write lands in its own block which is flushed partially
    // filled: 4x write amplification.
    EXPECT_EQ(e.mediaWriteBlocks, 64u);
    EXPECT_EQ(e.mediaWriteBytes(), 4 * e.demandBytes());
}

TEST(NvramDevice, ManyInterleavedStreamsDefeatMerging)
{
    // 8 interleaved sequential writers vs a 4-entry WPQ: streams evict
    // each other's partial blocks, so media writes exceed demand/4.
    NvramDevice dev(smallParams());
    constexpr int kStreams = 8;
    constexpr int kLines = 64;
    Addr bases[kStreams];
    for (int s = 0; s < kStreams; ++s)
        bases[s] = static_cast<Addr>(s) * kMiB;
    for (int i = 0; i < kLines; ++i) {
        for (int s = 0; s < kStreams; ++s) {
            dev.write(bases[s] + static_cast<Addr>(i) * kLineSize,
                      static_cast<std::uint16_t>(s));
        }
    }
    dev.flushWpq();
    auto e = dev.drainEpoch();
    std::uint64_t fully_merged = e.demandWrites / 4;
    EXPECT_GT(e.mediaWriteBlocks, fully_merged);
    EXPECT_EQ(e.writerStreams, 8u);
}

TEST(NvramDevice, SingleStreamIsImmuneToSmallWpq)
{
    NvramDevice dev(smallParams());
    for (Addr a = 0; a < 256 * kLineSize; a += kLineSize)
        dev.write(a, 0);
    dev.flushWpq();
    auto e = dev.drainEpoch();
    EXPECT_EQ(e.mediaWriteBytes(), e.demandBytes());
}

TEST(NvramDevice, WriteEfficiencyCurve)
{
    NvramDevice dev(NvramParams{});
    EXPECT_DOUBLE_EQ(dev.writeEfficiency(1), 1.0);
    EXPECT_DOUBLE_EQ(dev.writeEfficiency(4), 1.0);
    EXPECT_LT(dev.writeEfficiency(8), 1.0);
    EXPECT_LT(dev.writeEfficiency(24), dev.writeEfficiency(8));
    // 24 threads: 1 / (1 + 0.01 * 20).
    EXPECT_NEAR(dev.writeEfficiency(24), 1.0 / 1.2, 1e-12);
}

TEST(NvramDevice, TotalsAccumulateAcrossEpochs)
{
    NvramDevice dev(smallParams());
    dev.read(0, 0);
    dev.drainEpoch();
    dev.read(4096, 0);
    dev.drainEpoch();
    EXPECT_EQ(dev.total().demandReads, 2u);
    EXPECT_EQ(dev.total().mediaReadBlocks, 2u);
    EXPECT_EQ(dev.epoch().demandReads, 0u);
}

TEST(NvramDevice, AmplificationAccessors)
{
    NvramDevice dev(smallParams());
    for (int i = 0; i < 16; ++i)
        dev.write(static_cast<Addr>(i) * 8 * kMediaBlockSize, 0);
    dev.flushWpq();
    dev.drainEpoch();
    EXPECT_DOUBLE_EQ(dev.writeAmplification(), 4.0);
    EXPECT_DOUBLE_EQ(dev.readAmplification(), 0.0);
}
