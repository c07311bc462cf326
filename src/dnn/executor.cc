#include "dnn/executor.hh"

#include "core/logging.hh"
#include "obs/observer.hh"

namespace nvsim::dnn
{

Executor::Executor(MemorySystem &sys, const ComputeGraph &graph,
                   const ExecutorConfig &config)
    : sys_(sys), graph_(graph), config_(config),
      plan_(planArena(graph, sys.config().scale))
{
    arena_ = sys_.allocate(plan_.arenaBytes, graph_.name() + "_arena");
    weightsRegion_ =
        sys_.allocate(plan_.weightBytes, graph_.name() + "_weights");
}

Addr
Executor::tensorAddr(TensorId id) const
{
    const TensorPlacement &p = plan_.at(id);
    return (p.inArena ? arena_.base : weightsRegion_.base) + p.offset;
}

void
Executor::streamRange(MemorySystem &sys, Addr base, Bytes bytes,
                      CpuOp op, unsigned threads, Bytes chunk,
                      double compute_share_per_byte)
{
    if (bytes == 0)
        return;
    // Chunks round-robin across threads, approximating a parallel-for
    // over the tensor.
    Bytes done = 0;
    unsigned thread = 0;
    while (done < bytes) {
        Bytes n = std::min(chunk, bytes - done);
        // One submit per chunk: ceil(n / 64) lines from the chunk's
        // line base.
        sys.submit({thread, op, lineBase(base + done),
                    (n + kLineSize - 1) & ~(kLineSize - 1)});
        if (compute_share_per_byte > 0)
            sys.addComputeTime(compute_share_per_byte *
                               static_cast<double>(n));
        done += n;
        thread = (thread + 1) % threads;
    }
}

IterationResult
Executor::runIteration()
{
    IterationResult result;
    sys_.setActiveThreads(config_.threads);
    PerfCounters before = sys_.counters();
    double t0 = sys_.now();
    std::uint64_t scale = sys_.config().scale;
    obs::ContextScope graphCtx(sys_.observer(), graph_.name());

    for (const Op &op : graph_.schedule()) {
        obs::ContextScope opCtx(sys_.observer(), op.name);
        KernelEvent ev;
        ev.op = op.id;
        ev.kind = op.kind;
        ev.name = op.name;
        ev.start = sys_.now();
        ev.flops = op.flops / static_cast<double>(scale);

        Bytes bytes = 0;
        for (TensorId t : op.inputs)
            bytes += plan_.at(t).bytes;
        for (TensorId t : op.outputs)
            bytes += plan_.at(t).bytes;
        ev.bytesTouched = bytes;

        double compute_seconds =
            ev.flops /
            (static_cast<double>(config_.threads) * config_.flopsPerCore);
        double share = bytes ? compute_seconds /
                                   static_cast<double>(bytes)
                             : 0;

        for (TensorId t : op.inputs) {
            streamRange(sys_, tensorAddr(t), plan_.at(t).bytes,
                        CpuOp::Load, config_.threads, config_.chunkBytes,
                        share);
        }
        for (TensorId t : op.outputs) {
            streamRange(sys_, tensorAddr(t), plan_.at(t).bytes,
                        CpuOp::Store, config_.threads, config_.chunkBytes,
                        share);
        }
        if (bytes == 0 && compute_seconds > 0)
            sys_.addComputeTime(compute_seconds);

        // Close the kernel's timing epoch so events don't bleed.
        sys_.advanceEpoch();
        ev.end = sys_.now();
        if (obs::Observer *o = sys_.observer())
            o->kernelSpan(op.name, ev.start, ev.end);

        double inst = ev.flops * config_.instPerFlop +
                      static_cast<double>(bytes) * config_.instPerByte;
        result.totalInstructions += inst;
        double dt = ev.end - ev.start;
        if (dt > 0)
            sys_.trace().record("mips", ev.end, inst / dt / 1e6);

        result.kernels.push_back(std::move(ev));
    }

    sys_.quiesce();
    result.seconds = sys_.now() - t0;
    result.counters = sys_.counters().delta(before);
    return result;
}

} // namespace nvsim::dnn
