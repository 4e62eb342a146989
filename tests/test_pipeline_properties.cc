/**
 * @file
 * Property tests for the Section VIII sorting pipeline: every slot of
 * the stream is correctly sorted, outputs emerge one fixed O(log N)
 * beat apart after the fill latency, and pipelining a stream beats
 * repeating the unpipelined sort for any stream of two or more.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "otn/pipeline.hh"
#include "sim/rng.hh"
#include "sim/thread_pool.hh"

namespace {

using namespace ot::otn;
using ot::sim::Rng;
using ot::vlsi::CostModel;
using ot::vlsi::DelayModel;
using ot::vlsi::ModelTime;
using ot::vlsi::WordFormat;

std::vector<std::vector<std::uint64_t>>
randomProblems(std::size_t count, std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<std::uint64_t>> problems(count);
    for (auto &p : problems) {
        p.resize(n);
        for (auto &x : p)
            x = rng.uniform(0, n - 1);
    }
    return problems;
}

CostModel
logCost(std::size_t n)
{
    return {DelayModel::Logarithmic, WordFormat::forProblemSize(n)};
}

class SortPipelineProperties
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SortPipelineProperties, EverySlotIsSorted)
{
    const std::size_t count = GetParam();
    const std::size_t n = 32;
    auto problems = randomProblems(count, n, 101 + count);

    OrthogonalTreesNetwork net(n, logCost(n));
    auto r = sortPipelineOtn(net, problems);

    ASSERT_EQ(r.sorted.size(), count);
    for (std::size_t p = 0; p < count; ++p) {
        auto expect = problems[p];
        std::sort(expect.begin(), expect.end());
        EXPECT_EQ(r.sorted[p], expect) << "slot " << p;
    }
}

TEST_P(SortPipelineProperties, SlotsEmergeOneBeatApart)
{
    const std::size_t count = GetParam();
    const std::size_t n = 32;
    auto problems = randomProblems(count, n, 211 + count);

    OrthogonalTreesNetwork net(n, logCost(n));
    auto r = sortPipelineOtn(net, problems);

    // The beat is three word-length time slices — one per phase in
    // flight — i.e. O(log N), not O(log^2 N).
    EXPECT_EQ(r.problemInterval, 3 * net.cost().wordSeparation());
    EXPECT_LT(r.problemInterval, r.firstLatency);

    // After the pipe fills, one sorted sequence drains per beat, so
    // the total is exactly fill latency plus (count - 1) beats.
    EXPECT_EQ(r.totalTime,
              r.firstLatency + (count - 1) * r.problemInterval);
}

TEST_P(SortPipelineProperties, PipelineBeatsSequentialRepetition)
{
    const std::size_t count = GetParam();
    if (count < 2)
        GTEST_SKIP() << "speedup claim applies to streams of >= 2";
    const std::size_t n = 32;
    auto problems = randomProblems(count, n, 307 + count);

    OrthogonalTreesNetwork piped(n, logCost(n));
    auto r = sortPipelineOtn(piped, problems);

    // The unpipelined baseline: the same problems, one full sort each.
    OrthogonalTreesNetwork seq(n, logCost(n));
    ModelTime sequential = 0;
    for (const auto &p : problems)
        sequential += sortOtn(seq, p).time;

    EXPECT_LT(r.totalTime, sequential);

    // The speedup approaches latency/beat as the stream lengthens;
    // even at small counts each extra problem costs one beat instead
    // of one full latency.
    ModelTime extra_piped = r.totalTime - r.firstLatency;
    ModelTime extra_seq = sequential - r.firstLatency;
    EXPECT_LT(extra_piped, extra_seq);
}

INSTANTIATE_TEST_SUITE_P(StreamLengths, SortPipelineProperties,
                         ::testing::Values(1, 2, 3, 8));

// The pipeline must charge the same total however many machines run
// it at once, one per host lane as in the batch farm (the sortOtn
// instances inside run through runUncharged).
TEST(SortPipelineProperties2, TotalTimeIsHostThreadInvariant)
{
    const std::size_t n = 16;
    auto problems = randomProblems(4, n, 997);

    OrthogonalTreesNetwork ref(n, logCost(n));
    const ModelTime expect = sortPipelineOtn(ref, problems).totalTime;
    for (unsigned lanes : {2u, 8u}) {
        std::vector<ModelTime> totals(lanes);
        ot::sim::ThreadPool::shared().run(lanes, [&](unsigned lane) {
            OrthogonalTreesNetwork net(n, logCost(n));
            totals[lane] = sortPipelineOtn(net, problems).totalTime;
        });
        for (ModelTime t : totals)
            EXPECT_EQ(t, expect) << "lanes=" << lanes;
    }
}

} // namespace
