/**
 * @file
 * Parallel sweep engine.
 *
 * Every bench binary sweeps independent simulation configurations:
 * each sweep point builds its own MemorySystem, runs a workload and
 * reports a result. The points share nothing, so the sweep is
 * embarrassingly parallel — but the output (console tables, CSV rows,
 * obs artifacts) must stay in declaration order so a parallel run is
 * byte-identical to a serial one.
 *
 * SweepRunner provides exactly that contract:
 *
 *  - a fixed pool of worker threads created once per runner;
 *  - map(n, fn) evaluates fn(0..n-1) concurrently, storing each result
 *    at its own index, and returns the vector once every task is done
 *    (completion order never leaks into the collection order);
 *  - exceptions are caught per task and the lowest-index one is
 *    rethrown after the whole batch has finished, so a failing point
 *    cannot corrupt another point's slot;
 *  - jobs == 1 degenerates to an inline, in-order loop on the calling
 *    thread with no pool at all — bit-for-bit today's serial behavior.
 *
 * Tasks must be self-contained: own their MemorySystem, buffer their
 * console/CSV output into their result, and never touch shared mutable
 * state. The bench harness (bench/bench_common.hh) parses --jobs=N and
 * forces jobs = 1 when an observability session is enabled, since the
 * obs Session serializes runs on one timeline.
 */

#ifndef NVSIM_EXEC_SWEEP_HH
#define NVSIM_EXEC_SWEEP_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nvsim::exec
{

/** Default worker count: the host's hardware concurrency (min 1). */
unsigned hardwareJobs();

/** Fixed-size thread pool running indexed task batches in order. */
class SweepRunner
{
  public:
    /**
     * @param jobs  worker threads; 0 means hardwareJobs(). With
     *              jobs == 1 no threads are created and every map()
     *              runs inline on the calling thread.
     */
    explicit SweepRunner(unsigned jobs = 0);
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    unsigned jobs() const { return jobs_; }

    /**
     * Evaluate fn(i) for every i in [0, n), collecting results by
     * index. Blocks until all n tasks completed. Every task runs even
     * if an earlier one throws; afterwards the lowest-index captured
     * exception (if any) is rethrown. R must be default-constructible
     * and movable.
     */
    template <typename R, typename F>
    std::vector<R>
    map(std::size_t n, F &&fn)
    {
        std::vector<R> out(n);
        std::vector<std::exception_ptr> errors(n);
        runIndexed(n, [&](std::size_t i) {
            try {
                out[i] = fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
        rethrowFirst(errors);
        return out;
    }

    /** Side-effect-only variant of map() (same ordering contract). */
    template <typename F>
    void
    forEach(std::size_t n, F &&fn)
    {
        std::vector<std::exception_ptr> errors(n);
        runIndexed(n, [&](std::size_t i) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
        rethrowFirst(errors);
    }

  private:
    /** Dispatch one batch of n tasks; task() must not throw. */
    void runIndexed(std::size_t n,
                    const std::function<void(std::size_t)> &task);

    static void rethrowFirst(std::vector<std::exception_ptr> &errors);

    void workerLoop();

    unsigned jobs_;
    std::vector<std::thread> workers_;

    // Batch state, all guarded by m_. Workers claim indices under m_,
    // so a claim always pairs the index with the task and size of the
    // batch that was current when it was made; the batch cannot end
    // (and runIndexed() cannot install the next one) until every
    // claimed task has reported completion.
    std::mutex m_;
    std::condition_variable workCv_;  //!< workers wait here for a batch
    std::condition_variable doneCv_;  //!< map() waits here for the batch
    const std::function<void(std::size_t)> *task_ = nullptr;
    std::size_t batchSize_ = 0;  //!< 0 between batches
    std::size_t nextIndex_ = 0;  //!< next unclaimed index
    std::size_t completed_ = 0;  //!< tasks finished in current batch
    bool stop_ = false;
};

} // namespace nvsim::exec

#endif // NVSIM_EXEC_SWEEP_HH
