#include "exec/sweep.hh"

#include "core/hostprof.hh"

namespace nvsim::exec
{

unsigned
hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

SweepRunner::SweepRunner(unsigned jobs)
    : jobs_(jobs ? jobs : hardwareJobs())
{
    if (jobs_ <= 1)
        return;  // inline mode: no pool
    workers_.reserve(jobs_);
    for (unsigned i = 0; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

SweepRunner::~SweepRunner()
{
    {
        std::lock_guard<std::mutex> lk(m_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
SweepRunner::workerLoop()
{
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
        workCv_.wait(lk,
                     [&] { return stop_ || nextIndex_ < batchSize_; });
        if (stop_)
            return;
        const std::function<void(std::size_t)> &task = *task_;
        std::size_t i = nextIndex_++;
        lk.unlock();
        task(i);
        lk.lock();
        if (++completed_ == batchSize_)
            doneCv_.notify_all();
    }
}

void
SweepRunner::runIndexed(std::size_t n,
                        const std::function<void(std::size_t)> &task)
{
    if (n == 0)
        return;
    HostPhase phase("sweep.batch");
    if (jobs_ <= 1 || n == 1) {
        // Serial mode: run inline, in index order, on this thread.
        for (std::size_t i = 0; i < n; ++i)
            task(i);
        return;
    }
    std::unique_lock<std::mutex> lk(m_);
    task_ = &task;
    batchSize_ = n;
    completed_ = 0;
    nextIndex_ = 0;
    workCv_.notify_all();
    doneCv_.wait(lk, [&] { return completed_ == n; });
    task_ = nullptr;
    batchSize_ = 0;
}

void
SweepRunner::rethrowFirst(std::vector<std::exception_ptr> &errors)
{
    for (std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace nvsim::exec
