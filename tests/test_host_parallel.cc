/**
 * @file
 * Tests for the host thread pool behind the batch farm
 * (sim/thread_pool) and the farm's dispatch over it
 * (sim::ChainEngine::hostFor): every lane runs exactly once, lane 0
 * runs on the caller, nested jobs run inline, a throwing lane reaches
 * the caller after every lane is joined, OT_HOST_THREADS sets the
 * default width, and hostFor runs every index once with lanes
 * claiming indices rather than owning fixed blocks.  The farm's
 * byte-identical reports at any thread count are asserted in
 * test_workload.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/chain_engine.hh"
#include "sim/thread_pool.hh"

namespace {

using ot::sim::ThreadPool;

/** run(lanes, fn), returning the message of the exception it threw
 *  ("" when it threw none). */
std::string
thrownBy(unsigned lanes, const std::function<void(unsigned)> &fn)
{
    try {
        ThreadPool::shared().run(lanes, fn);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(ThreadPool, RunsEveryLaneExactlyOnce)
{
    auto &pool = ThreadPool::shared();
    constexpr unsigned kLanes = 6;
    std::vector<std::atomic<int>> hits(kLanes);
    pool.run(kLanes, [&](unsigned lane) { ++hits[lane]; });
    for (unsigned t = 0; t < kLanes; ++t)
        EXPECT_EQ(hits[t].load(), 1) << "lane " << t;
    EXPECT_GE(pool.workerCount(), kLanes - 1);
}

TEST(ThreadPool, LaneZeroRunsOnTheCaller)
{
    std::thread::id lane0;
    ThreadPool::shared().run(4, [&](unsigned lane) {
        if (lane == 0)
            lane0 = std::this_thread::get_id();
    });
    EXPECT_EQ(lane0, std::this_thread::get_id());
}

TEST(ThreadPool, NestedRunFallsBackToInline)
{
    std::atomic<int> inner_hits{0};
    ThreadPool::shared().run(3, [&](unsigned) {
        // A job launched from inside a worker must not deadlock: it
        // runs all its lanes inline on the calling lane.
        ThreadPool::shared().run(2, [&](unsigned) { ++inner_hits; });
    });
    EXPECT_EQ(inner_hits.load(), 3 * 2);
}

TEST(ThreadPool, WorkerLaneExceptionReachesTheCaller)
{
    constexpr unsigned kLanes = 4;
    std::vector<std::atomic<int>> hits(kLanes);
    EXPECT_EQ(thrownBy(kLanes,
                       [&](unsigned lane) {
                           ++hits[lane];
                           if (lane == 2)
                               throw std::runtime_error("lane 2");
                       }),
              "lane 2");
    for (unsigned t = 0; t < kLanes; ++t)
        EXPECT_EQ(hits[t].load(), 1) << "lane " << t;
}

TEST(ThreadPool, LaneZeroExceptionWaitsForEveryWorker)
{
    constexpr unsigned kLanes = 4;
    std::atomic<int> finished{0};
    EXPECT_EQ(thrownBy(kLanes,
                       [&](unsigned lane) {
                           if (lane == 0)
                               throw std::runtime_error("lane 0");
                           // Still running when lane 0 unwinds.
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(20));
                           ++finished;
                       }),
              "lane 0");
    EXPECT_EQ(finished.load(), static_cast<int>(kLanes - 1));
}

TEST(ThreadPool, LowestThrowingLaneWins)
{
    EXPECT_EQ(thrownBy(4,
                       [](unsigned lane) {
                           if (lane == 1 || lane == 3)
                               throw std::runtime_error(
                                   "lane " + std::to_string(lane));
                       }),
              "lane 1");
    // The same order when a nested job runs its lanes inline.
    std::string inner;
    ThreadPool::shared().run(2, [&](unsigned lane) {
        if (lane == 0)
            inner = thrownBy(3, [](unsigned t) {
                if (t > 0)
                    throw std::runtime_error("inner " + std::to_string(t));
            });
    });
    EXPECT_EQ(inner, "inner 1");
}

TEST(ThreadPool, NextJobAfterAThrowRunsOnWorkers)
{
    constexpr unsigned kLanes = 4;
    for (unsigned thrower : {0u, kLanes - 1}) {
        EXPECT_EQ(thrownBy(kLanes,
                           [&](unsigned lane) {
                               if (lane == thrower)
                                   throw std::runtime_error("x");
                           }),
                  "x");
        // A caller left marked busy would run this job inline.
        std::vector<std::thread::id> ran(kLanes);
        ThreadPool::shared().run(kLanes, [&](unsigned lane) {
            ran[lane] = std::this_thread::get_id();
        });
        EXPECT_EQ(ran[0], std::this_thread::get_id());
        for (unsigned t = 1; t < kLanes; ++t)
            EXPECT_NE(ran[t], std::this_thread::get_id())
                << "lane " << t << " after lane " << thrower << " threw";
    }
}

TEST(HostFor, RunsEveryIndexExactlyOnce)
{
    constexpr unsigned kLanes = 4;
    ot::sim::TimeAccountant acct;
    ot::sim::StatSet stats;
    const ot::sim::ChainEngine engine(acct, stats, kLanes);
    for (std::size_t count :
         {std::size_t{0}, std::size_t{1}, std::size_t{kLanes - 1},
          std::size_t{kLanes}, std::size_t{3 * kLanes + 1}}) {
        std::vector<std::atomic<int>> hits(count);
        engine.hostFor(count, [&](std::size_t k) { ++hits[k]; });
        for (std::size_t k = 0; k < count; ++k)
            EXPECT_EQ(hits[k].load(), 1) << "count " << count << " k " << k;
    }
    EXPECT_EQ(acct.now(), 0u);
}

// Lanes claim indices: while the lane holding index 0 waits, the
// other lanes take every remaining index.  Under a fixed block split
// index 0's lane would own indices 1 and 2 too, and the wait would
// time out instead.
TEST(HostFor, IdleLanesClaimEveryRemainingIndex)
{
    constexpr unsigned kLanes = 4;
    constexpr std::size_t kCount = 3 * kLanes + 1;
    ot::sim::TimeAccountant acct;
    ot::sim::StatSet stats;
    std::mutex m;
    std::condition_variable cv;
    std::size_t finished = 0;
    bool sawAll = false;
    ot::sim::ChainEngine(acct, stats, kLanes)
        .hostFor(kCount, [&](std::size_t k) {
            std::unique_lock<std::mutex> lk(m);
            if (k == 0) {
                sawAll = cv.wait_for(lk, std::chrono::seconds(10), [&] {
                    return finished == kCount - 1;
                });
                return;
            }
            ++finished;
            cv.notify_all();
        });
    EXPECT_TRUE(sawAll);
    EXPECT_EQ(finished, kCount - 1);
}

TEST(ThreadPool, DefaultThreadsHonoursEnvironment)
{
    const char *saved = std::getenv("OT_HOST_THREADS");
    std::string saved_value = saved ? saved : "";

    ::setenv("OT_HOST_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreads(), 3u);
    ::setenv("OT_HOST_THREADS", "1", 1);
    EXPECT_EQ(ThreadPool::defaultThreads(), 1u);
    // Invalid values fall back to hardware concurrency (>= 1).
    ::setenv("OT_HOST_THREADS", "zero", 1);
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    ::setenv("OT_HOST_THREADS", "0", 1);
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);

    if (saved)
        ::setenv("OT_HOST_THREADS", saved_value.c_str(), 1);
    else
        ::unsetenv("OT_HOST_THREADS");
}

} // namespace
