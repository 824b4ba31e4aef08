#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/log.hpp"
#include "common/worker_pool.hpp"

namespace pushtap {
namespace {

TEST(WorkerPool, HardwareWorkersIsAtLeastOne)
{
    EXPECT_GE(WorkerPool::hardwareWorkers(), 1u);
}

TEST(WorkerPool, ZeroWorkersResolvesToHardware)
{
    WorkerPool pool(0);
    EXPECT_EQ(pool.workers(), WorkerPool::hardwareWorkers());
}

TEST(WorkerPool, EveryTaskRunsExactlyOnce)
{
    WorkerPool pool(4);
    constexpr std::size_t kTasks = 1000;
    // Each task index is claimed exactly once, so per-slot writes
    // cannot race; the counter cross-checks the total.
    std::vector<int> hits(kTasks, 0);
    std::atomic<std::size_t> total{0};
    pool.parallelFor(kTasks, [&](std::uint32_t, std::size_t t) {
        ++hits[t];
        total.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(total.load(), kTasks);
    for (std::size_t t = 0; t < kTasks; ++t)
        EXPECT_EQ(hits[t], 1) << "task " << t;
}

TEST(WorkerPool, WorkerIdsStayInRange)
{
    WorkerPool pool(3);
    std::atomic<std::uint32_t> max_worker{0};
    pool.parallelFor(64, [&](std::uint32_t w, std::size_t) {
        std::uint32_t cur = max_worker.load();
        while (w > cur && !max_worker.compare_exchange_weak(cur, w)) {
        }
    });
    EXPECT_LT(max_worker.load(), 3u);
}

TEST(WorkerPool, SingleWorkerRunsInlineInOrder)
{
    WorkerPool pool(1);
    std::vector<std::size_t> order;
    pool.parallelFor(16, [&](std::uint32_t w, std::size_t t) {
        EXPECT_EQ(w, 0u);
        order.push_back(t); // Safe: no threads with one worker.
    });
    std::vector<std::size_t> expect(16);
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(order, expect);
}

TEST(WorkerPool, ZeroTasksIsANoop)
{
    WorkerPool pool(2);
    bool ran = false;
    pool.parallelFor(0, [&](std::uint32_t, std::size_t) {
        ran = true;
    });
    EXPECT_FALSE(ran);
}

TEST(WorkerPool, ReusableAcrossJobs)
{
    WorkerPool pool(4);
    for (int round = 0; round < 20; ++round) {
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(100, [&](std::uint32_t, std::size_t t) {
            sum.fetch_add(t, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 99u * 100u / 2u) << round;
    }
}

TEST(WorkerPool, BackToBackShortJobsStayInsideTheirCall)
{
    // The engine's per-query passes in miniature: thousands of jobs
    // of 2-9 tasks back to back, so threads often wake to a job the
    // caller has already run dry and closed. Each job's closure and
    // live flag sit on this frame, and the flag is cleared right
    // after parallelFor returns: a task that ran late would see it
    // cleared, and its hit would race with the check below.
    WorkerPool pool(4);
    constexpr std::size_t kJobs = 10000;
    constexpr std::size_t kMaxTasks = 9;
    std::vector<std::uint8_t> hits(kJobs * kMaxTasks, 0);
    std::atomic<std::size_t> late{0};
    for (std::size_t job = 0; job < kJobs; ++job) {
        const std::size_t tasks = 2 + job % (kMaxTasks - 1);
        std::atomic<bool> live{true};
        pool.parallelFor(tasks, [&](std::uint32_t, std::size_t t) {
            if (!live.load(std::memory_order_relaxed))
                late.fetch_add(1, std::memory_order_relaxed);
            ++hits[job * kMaxTasks + t];
        });
        live.store(false, std::memory_order_relaxed);
    }
    EXPECT_EQ(late.load(), 0u);
    for (std::size_t job = 0; job < kJobs; ++job) {
        const std::size_t tasks = 2 + job % (kMaxTasks - 1);
        for (std::size_t t = 0; t < kMaxTasks; ++t)
            ASSERT_EQ(hits[job * kMaxTasks + t], t < tasks ? 1 : 0)
                << "job " << job << " task " << t;
    }
}

TEST(WorkerPool, PerWorkerAccumulatorsNeedNoSynchronization)
{
    // The executor pattern: worker w only touches slot w, then the
    // caller merges after parallelFor returns.
    WorkerPool pool(4);
    constexpr std::size_t kTasks = 257;
    std::vector<std::uint64_t> partial(pool.workers(), 0);
    pool.parallelFor(kTasks, [&](std::uint32_t w, std::size_t t) {
        partial[w] += t + 1;
    });
    const auto total = std::accumulate(partial.begin(),
                                       partial.end(), 0ull);
    EXPECT_EQ(total, kTasks * (kTasks + 1) / 2);
}

TEST(RunTasks, EveryTaskRunsOnceInlineWithoutAParallelPool)
{
    // Without a pool, on a one-worker pool and for a single task the
    // loop runs inline as worker 0, in order; on a four-worker pool
    // every task still runs exactly once.
    WorkerPool one(1), four(4);
    const struct
    {
        WorkerPool *pool;
        std::size_t tasks;
        bool runsInline;
    } cases[] = {{nullptr, 16, true},
                 {&one, 16, true},
                 {&four, 1, true},
                 {&four, 1000, false}};
    for (const auto &c : cases) {
        std::vector<int> hits(c.tasks, 0);
        std::vector<std::size_t> order;
        std::atomic<bool> other_worker{false};
        runTasks(c.pool, c.tasks, [&](std::uint32_t w, std::size_t t) {
            ++hits[t];
            if (w != 0)
                other_worker = true;
            if (c.runsInline)
                order.push_back(t); // Safe: the loop runs inline.
        });
        const auto what = ::testing::Message()
                          << "pool " << (c.pool ? c.pool->workers() : 0)
                          << " tasks " << c.tasks;
        EXPECT_EQ(hits, std::vector<int>(c.tasks, 1)) << what;
        if (c.runsInline) {
            EXPECT_FALSE(other_worker) << what;
            std::vector<std::size_t> expect(c.tasks);
            std::iota(expect.begin(), expect.end(), 0);
            EXPECT_EQ(order, expect) << what;
        }
    }
}

TEST(WorkerPool, ReentrantParallelForFatals)
{
    // A task dispatching onto the pool that runs it would corrupt
    // the job handshake (or recurse forever on one worker); it must
    // fail loudly instead. Driven through the single-task inline
    // path so the FatalError surfaces on the calling thread.
    WorkerPool pool(2);
    EXPECT_THROW(
        pool.parallelFor(1,
                         [&](std::uint32_t, std::size_t) {
                             pool.parallelFor(
                                 1, [](std::uint32_t,
                                       std::size_t) {});
                         }),
        FatalError);

    // The pool stays usable after the rejected call.
    std::atomic<std::size_t> ran{0};
    pool.parallelFor(8, [&](std::uint32_t, std::size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 8u);
}

TEST(WorkerPool, NestedDifferentPoolsAllowed)
{
    WorkerPool outer(1), inner(2);
    std::atomic<std::size_t> ran{0};
    outer.parallelFor(1, [&](std::uint32_t, std::size_t) {
        inner.parallelFor(8, [&](std::uint32_t, std::size_t) {
            ran.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(ran.load(), 8u);
}

} // namespace
} // namespace pushtap
