/**
 * @file
 * Tests for the host thread pool behind the batch farm
 * (sim/thread_pool): every lane runs exactly once, lane 0 runs on the
 * caller, nested jobs run inline, and OT_HOST_THREADS sets the
 * default width.  The farm's byte-identical reports at any thread
 * count are asserted in test_workload.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "sim/thread_pool.hh"

namespace {

using ot::sim::ThreadPool;

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
