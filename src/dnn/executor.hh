/**
 * @file
 * Training executor: runs a ComputeGraph iteration against the
 * simulated memory system the way the ngraph runtime runs a compiled
 * network (Section V of the paper).
 *
 * Every kernel streams its input tensors (loads) and output tensors
 * (standard stores, i.e. RFO + eventual writeback) through the memory
 * hierarchy, overlapped with the kernel's compute time. Tensor
 * addresses come from the static arena plan, so the 2LM DRAM cache sees
 * the exact reuse pattern of Figure 5d — including the dirty-but-dead
 * regions that cause useless writebacks.
 */

#ifndef NVSIM_DNN_EXECUTOR_HH
#define NVSIM_DNN_EXECUTOR_HH

#include <vector>

#include "dnn/planner.hh"
#include "sys/memsys.hh"

namespace nvsim::dnn
{

/** Execution model parameters. */
struct ExecutorConfig
{
    unsigned threads = 24;        //!< worker threads (cores used)
    double flopsPerCore = 50e9;   //!< sustained fp32 FLOP/s per core
    /** Interleave compute and memory in chunks of this many bytes. */
    Bytes chunkBytes = 256 * kKiB;
    /** Estimated instructions per FLOP (for the MIPS trace). */
    double instPerFlop = 0.3;
    /** Estimated instructions per byte moved. */
    double instPerByte = 0.12;
};

/** Timestamped kernel execution record (Figure 6). */
struct KernelEvent
{
    OpId op = 0;
    OpKind kind = OpKind::Conv;
    std::string name;
    double start = 0;   //!< simulated seconds
    double end = 0;
    Bytes bytesTouched = 0;
    double flops = 0;
};

/** Result of one training iteration. */
struct IterationResult
{
    double seconds = 0;
    PerfCounters counters;
    std::vector<KernelEvent> kernels;
    double totalInstructions = 0;

    /** Mean retired-instruction rate (Figure 5a proxy). */
    double
    mips() const
    {
        return seconds > 0 ? totalInstructions / seconds / 1e6 : 0;
    }
};

/** ngraph-style executor over a static arena (2LM or flat 1LM). */
class Executor
{
  public:
    /**
     * Plans the arena and allocates it (plus the persistent weight
     * region) from @p sys.
     */
    Executor(MemorySystem &sys, const ComputeGraph &graph,
             const ExecutorConfig &config);

    /** Run one full training iteration. */
    IterationResult runIteration();

    const ArenaPlan &plan() const { return plan_; }
    const Region &arena() const { return arena_; }
    const Region &weights() const { return weightsRegion_; }

    /** Simulated address of a tensor. */
    Addr tensorAddr(TensorId id) const;

    /**
     * Stream one tensor-sized range through the memory system with the
     * kernel's compute share interleaved: one submit() per chunk,
     * chunks round-robin across threads. Shared with AutoTmExecutor.
     */
    static void streamRange(MemorySystem &sys, Addr base, Bytes bytes,
                            CpuOp op, unsigned threads, Bytes chunk,
                            double compute_share_per_byte);

  private:
    MemorySystem &sys_;
    const ComputeGraph &graph_;
    ExecutorConfig config_;
    ArenaPlan plan_;
    Region arena_;
    Region weightsRegion_;
};

} // namespace nvsim::dnn

#endif // NVSIM_DNN_EXECUTOR_HH
