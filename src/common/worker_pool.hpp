#pragma once

/**
 * @file
 * A small fixed-size worker pool for host-side parallel execution.
 *
 * The pool owns `workers - 1` threads; the caller of parallelFor()
 * participates as worker 0, so a one-worker pool spawns no threads
 * and runs everything inline (bit-identical to a plain loop, which
 * keeps single-threaded configurations trivially deterministic).
 * Tasks are claimed from a shared atomic counter, so long and short
 * tasks balance dynamically across workers. runTasks() runs a loop
 * on a pool when one is given and inline otherwise.
 *
 * Completion: a job is open to threads until the caller's own claim
 * loop runs dry, which means every task has been claimed. The caller
 * then closes it and waits only for the threads inside it; a thread
 * that wakes to a closed job goes back to sleep without touching it.
 * So a job never waits for threads that did not join it, and no
 * task is promised a worker of its own: the caller or a fast thread
 * may run several.
 *
 * Task functions must not throw (engine errors go through fatal(),
 * which throws before any job is dispatched, or panic()).
 *
 * Reentrancy is detected: a task that calls parallelFor() on the pool
 * that is running it fatal()s with a clear message instead of
 * silently corrupting the job handshake (or recursing forever on a
 * one-worker pool). Nested parallelism through a *different* pool
 * remains allowed.
 */

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pushtap {

class WorkerPool
{
  public:
    using Task = std::function<void(std::uint32_t worker,
                                    std::size_t task)>;

    /** @param workers  Worker count; 0 means hardwareWorkers(). */
    explicit WorkerPool(std::uint32_t workers = 0);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Hardware concurrency, at least 1. */
    static std::uint32_t hardwareWorkers();

    std::uint32_t workers() const { return workers_; }

    /**
     * Run fn(worker, task) for every task in [0, tasks), handing
     * tasks out in claim order from a shared counter. Blocks until
     * every task has finished. Reentrant calls (from inside a task)
     * are not supported.
     */
    void parallelFor(std::size_t tasks, const Task &fn);

  private:
    void threadMain(std::uint32_t worker);

    /** Claim-and-run loop shared by the caller and the threads. */
    void claimTasks(std::uint32_t worker, const Task &fn,
                    std::size_t tasks);

    /** Marks this thread as executing tasks of a pool (reentrancy
     * detection); restores the previous pool on scope exit so nested
     * different-pool jobs keep working. */
    class ActiveScope
    {
      public:
        explicit ActiveScope(const WorkerPool *pool)
            : prev_(tlsActive_)
        {
            tlsActive_ = pool;
        }
        ~ActiveScope() { tlsActive_ = prev_; }

      private:
        const WorkerPool *prev_;
    };

    static thread_local const WorkerPool *tlsActive_;

    std::uint32_t workers_;
    std::vector<std::thread> threads_;

    std::mutex mu_;
    std::condition_variable workCv_; ///< New job / shutdown.
    std::condition_variable doneCv_; ///< Last thread left a job.
    const Task *fn_ = nullptr;       ///< Guarded by mu_.
    std::size_t tasks_ = 0;          ///< Guarded by mu_.
    std::uint64_t generation_ = 0;   ///< Job id, guarded by mu_.
    bool open_ = false;              ///< Joinable; guarded by mu_.
    std::size_t inside_ = 0;         ///< Joined threads; mu_.
    bool stop_ = false;              ///< Guarded by mu_.
    std::atomic<std::size_t> next_{0}; ///< Task claim counter.
};

/**
 * Run fn(worker, task) for every task in [0, tasks): claimed
 * dynamically over @p pool when it has more than one worker and there
 * is more than one task, inline as worker 0 otherwise.
 */
template <typename Fn>
void
runTasks(WorkerPool *pool, std::size_t tasks, Fn &&fn)
{
    if (pool && pool->workers() > 1 && tasks > 1) {
        pool->parallelFor(tasks, fn);
        return;
    }
    for (std::size_t t = 0; t < tasks; ++t)
        fn(0, t);
}

} // namespace pushtap
