#include "common/worker_pool.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace pushtap {

thread_local const WorkerPool *WorkerPool::tlsActive_ = nullptr;

std::uint32_t
WorkerPool::hardwareWorkers()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

WorkerPool::WorkerPool(std::uint32_t workers)
    : workers_(workers == 0 ? hardwareWorkers() : workers)
{
    threads_.reserve(workers_ - 1);
    for (std::uint32_t w = 1; w < workers_; ++w)
        threads_.emplace_back([this, w] { threadMain(w); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
WorkerPool::claimTasks(std::uint32_t worker, const Task &fn,
                       std::size_t tasks)
{
    const ActiveScope active(this);
    for (;;) {
        const std::size_t t =
            next_.fetch_add(1, std::memory_order_relaxed);
        if (t >= tasks)
            return;
        fn(worker, t);
    }
}

void
WorkerPool::threadMain(std::uint32_t worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        const Task *fn = nullptr;
        std::size_t tasks = 0;
        {
            std::unique_lock<std::mutex> lk(mu_);
            workCv_.wait(lk, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
            // A closed job has every task claimed: sleep until the
            // next one.
            if (!open_)
                continue;
            ++inside_;
            fn = fn_;
            tasks = tasks_;
        }
        claimTasks(worker, *fn, tasks);
        {
            std::lock_guard<std::mutex> lk(mu_);
            // Only the last thread out of a closed job has a caller
            // to wake.
            if (--inside_ != 0 || open_)
                continue;
        }
        doneCv_.notify_one();
    }
}

void
WorkerPool::parallelFor(std::size_t tasks, const Task &fn)
{
    if (tasks == 0)
        return;
    if (tlsActive_ == this)
        fatal("WorkerPool::parallelFor: reentrant call from inside "
              "a task of the same pool; nested parallelism needs a "
              "separate WorkerPool");
    if (workers_ == 1 || tasks == 1) {
        const ActiveScope active(this);
        for (std::size_t t = 0; t < tasks; ++t)
            fn(0, t);
        return;
    }
    {
        std::lock_guard<std::mutex> lk(mu_);
        fn_ = &fn;
        tasks_ = tasks;
        open_ = true;
        next_.store(0, std::memory_order_relaxed);
        ++generation_;
    }
    workCv_.notify_all();
    claimTasks(0, fn, tasks);
    {
        // The caller's claim loop returned, so every task is claimed:
        // close the job and wait only for the threads inside it.
        // parallelFor must not return while a thread still runs a
        // task: the caller may free captured state right after.
        std::unique_lock<std::mutex> lk(mu_);
        open_ = false;
        doneCv_.wait(lk, [&] { return inside_ == 0; });
        fn_ = nullptr;
    }
}

} // namespace pushtap
