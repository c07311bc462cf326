/**
 * @file
 * Optane DC persistent memory DIMM model.
 *
 * The key microarchitectural facts the paper (and Yang et al., FAST'20)
 * rely on:
 *
 *  - The 3D-XPoint media is accessed in 256 B blocks, while the DDR-T bus
 *    carries 64 B transactions. Sub-block demand accesses are amplified
 *    4x at the media unless on-DIMM buffering combines them.
 *  - Reads flow through a small read-combine buffer: a 64 B read brings
 *    the whole 256 B media block near the controller, so sequential 64 B
 *    reads cost one media read per block. Random 64 B reads thrash the
 *    buffer and pay full amplification.
 *  - Writes land in a write-pending queue (WPQ / XPBuffer). Sequential
 *    64 B stores merge into 256 B media writes; when the buffer runs out
 *    of entries (too many concurrent streams) partially filled blocks are
 *    flushed early, causing write amplification and the measured
 *    bandwidth droop beyond ~4 writer threads.
 *  - Media bandwidth is asymmetric and (for the paper's 512 GiB DIMMs)
 *    lower than the smaller DIMMs: ~5.3 GB/s read per DIMM.
 *
 * The device is functional about its buffers (real LRU structures keyed
 * by media block) and analytic about time: it accumulates demand and
 * media byte counts per epoch for the system bandwidth solver.
 */

#ifndef NVSIM_MEM_NVRAM_HH
#define NVSIM_MEM_NVRAM_HH

#include <cstdint>
#include <vector>

#include "core/types.hh"

namespace nvsim
{

/**
 * Return type of NvramDevice::read() and write(). The device reports
 * nothing per transaction; the alias keeps the name that the
 * benchmark's link-time wrappers (perfbench/trace.cc) declare as the
 * wrapped functions' return type, and their traced() helper has a
 * void branch for it.
 */
using MediaFault = void;

/** Configuration of one Optane DIMM. */
struct NvramParams
{
    Bytes capacity = 512 * kGiB;
    double readBandwidth = 5.3e9;   //!< media read GB/s (512 GiB DIMM)
    double writeBandwidth = 1.9e9;  //!< media write GB/s
    double readLatency = 305e-9;    //!< demand read load-to-use seconds
    double writeLatency = 95e-9;    //!< ADR-buffered write accept seconds
    unsigned readBufferEntries = 16;  //!< read-combine blocks retained
    unsigned wpqEntries = 16;         //!< write-pending queue blocks
    /**
     * Extra controller inefficiency per concurrent writer stream beyond
     * the knee: effective write bandwidth is divided by
     * (1 + writeContentionAlpha * max(0, streams - writeContentionKnee)).
     * Models the XPBuffer contention that makes aggregate write bandwidth
     * peak near 4 threads and droop slightly beyond.
     */
    double writeContentionAlpha = 0.01;
    unsigned writeContentionKnee = 4;
};

/** Per-epoch traffic accumulated by an NVRAM device. */
struct NvramEpoch
{
    std::uint64_t demandReads = 0;    //!< 64 B bus read transactions
    std::uint64_t demandWrites = 0;   //!< 64 B bus write transactions
    std::uint64_t mediaReadBlocks = 0;   //!< 256 B media reads
    std::uint64_t mediaWriteBlocks = 0;  //!< 256 B media writes
    std::uint64_t writerStreams = 0;  //!< distinct writer threads seen

    Bytes demandBytes() const
    {
        return (demandReads + demandWrites) * kLineSize;
    }
    Bytes mediaReadBytes() const
    {
        return mediaReadBlocks * kMediaBlockSize;
    }
    Bytes mediaWriteBytes() const
    {
        return mediaWriteBlocks * kMediaBlockSize;
    }
};

/**
 * One Optane DIMM with functional read-combine and write-pending
 * buffers.
 */
class NvramDevice
{
  public:
    explicit NvramDevice(const NvramParams &params);

    /** 64 B demand read of the line at @p addr by @p thread. */
    MediaFault read(Addr addr, std::uint16_t thread);

    /** 64 B demand write of the line at @p addr by @p thread. */
    MediaFault write(Addr addr, std::uint16_t thread);

    /** @name Bulk demand runs (batched access fast path)
     * Consecutive-line equivalents of read()/write(): @p lines 64 B
     * transactions starting at @p addr, leaving every buffer, fill
     * bitmap and counter bit-identical to the per-line loop.
     */
    ///@{
    void readRun(Addr addr, std::uint64_t lines);
    void writeRun(Addr addr, std::uint64_t lines, std::uint16_t thread);
    ///@}

    /**
     * Flush all partially merged WPQ blocks to media (end of benchmark /
     * quiesce point). Each occupied entry costs one media write.
     */
    void flushWpq();

    /** Traffic since the last drain; resets the epoch accumulator. */
    NvramEpoch drainEpoch();

    const NvramEpoch &epoch() const { return epoch_; }
    const NvramEpoch &total() const { return total_; }
    const NvramParams &params() const { return params_; }

    /**
     * Write-bandwidth efficiency for @p streams concurrent writers
     * (1.0 at or below the knee).
     */
    double writeEfficiency(std::uint64_t streams) const;

    /** Lifetime media write amplification (media bytes / demand bytes). */
    double writeAmplification() const;

    /** Lifetime media read amplification. */
    double readAmplification() const;

  private:
    /**
     * Tiny LRU buffer of media block addresses. Capacities are on the
     * order of 16 entries, so a linear scan over a vector is both simple
     * and fast.
     *
     * Each entry is one word: the 256 B-aligned block address with the
     * block's fill mask (which 64 B lines the WPQ holds) in the low
     * bits the alignment leaves free. A probe reads nothing but the
     * order vector, and a newly inserted block starts with an empty
     * mask. The read buffer never sets mask bits.
     */
    struct BlockLru
    {
        explicit BlockLru(unsigned capacity) : capacity(capacity) {}

        static constexpr Addr kFillBits = kMediaBlockSize - 1;
        static constexpr Addr kFullFill = 0xF;  //!< all four lines

        static Addr blockOf(Addr entry) { return entry & ~kFillBits; }

        /**
         * Touch @p block, leaving its entry (fill mask included) at the
         * MRU end, order.back(). Returns true on hit. On miss inserts
         * with an empty mask and, if over capacity, evicts the least
         * recently used block into @p evicted and sets @p did_evict.
         */
        bool touch(Addr block, Addr &evicted, bool &did_evict);

        /** Remove all blocks, invoking @p f on each occupied entry. */
        template <typename F>
        void
        drain(F &&f)
        {
            for (Addr entry : order)
                f(blockOf(entry));
            order.clear();
        }

        unsigned capacity;
        std::vector<Addr> order;  //!< LRU order, back = most recent
    };

    NvramParams params_;
    NvramEpoch epoch_;
    NvramEpoch total_;

    BlockLru readBuffer_;
    BlockLru wpq_;
    /**
     * Writer-stream tracking: writerStamp_[thread] holds the epoch id
     * of that thread's last write, so counting distinct writers per
     * epoch is one indexed compare instead of a linear scan of every
     * demand write. The id bumps at each epoch drain.
     */
    std::vector<std::uint32_t> writerStamp_;
    std::uint32_t writerEpochId_ = 1;

    void noteWriter(std::uint16_t thread);
    void mediaWrite(Addr block);

    /**
     * Merge line @p slot into the MRU WPQ entry (the block just
     * touched). A fully merged block retires with one media write and
     * leaves the queue; returns true if it did.
     */
    bool mergeWpqSlot(unsigned slot);
};

} // namespace nvsim

#endif // NVSIM_MEM_NVRAM_HH
