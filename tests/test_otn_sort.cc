/**
 * @file
 * Tests for SORT-OTN (Section II-B) and the pipelined sorting stream
 * (Section VIII): correctness against std::sort across sizes, seeds,
 * duplicates and adversarial orders, plus the O(log^2 N) model-time
 * shape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "otc/emulated_otn.hh"
#include "otn/pipeline.hh"
#include "otn/sort.hh"
#include "sim/rng.hh"
#include "simd/backend.hh"
#include "topo/registry.hh"
#include "trace/tracer.hh"

namespace {

using namespace ot::otn;
using ot::sim::Rng;
using ot::vlsi::CostModel;
using ot::vlsi::DelayModel;
using ot::vlsi::WordFormat;

CostModel
logCost(std::size_t n)
{
    return {DelayModel::Logarithmic, WordFormat::forProblemSize(n)};
}

std::vector<std::uint64_t>
sortedCopy(std::vector<std::uint64_t> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

/** SORT-OTN on the registry's (N x N)-OTN, N = v.size(). */
ot::topo::SortRun
registrySort(const std::vector<std::uint64_t> &v,
             DelayModel model = DelayModel::Logarithmic, bool scaled = false)
{
    auto spec = ot::topo::resolveSpec("otn", ot::topo::Algo::Sort, v.size(),
                                      model, scaled);
    return ot::topo::registry().build(spec)->runSort(v);
}

TEST(SortOtn, TinyExample)
{
    auto r = registrySort({3, 1, 2, 0});
    EXPECT_EQ(r.sorted, (std::vector<std::uint64_t>{0, 1, 2, 3}));
    EXPECT_GT(r.time, 0u);
}

TEST(SortOtn, AlreadySortedAndReversed)
{
    std::vector<std::uint64_t> asc{0, 1, 2, 3, 4, 5, 6, 7};
    std::vector<std::uint64_t> desc(asc.rbegin(), asc.rend());
    EXPECT_EQ(registrySort(asc).sorted, asc);
    EXPECT_EQ(registrySort(desc).sorted, asc);
}

TEST(SortOtn, DuplicatesUseTieBreak)
{
    // The modified step 3 must handle equal keys.
    std::vector<std::uint64_t> v{5, 5, 5, 5, 1, 1, 9, 9};
    EXPECT_EQ(registrySort(v).sorted, sortedCopy(v));
}

TEST(SortOtn, AllEqual)
{
    std::vector<std::uint64_t> v(16, 7);
    EXPECT_EQ(registrySort(v).sorted, v);
}

TEST(SortOtn, SingleElement)
{
    // Machine words for a size-1 problem are 2 bits; 3 is the largest
    // legal input.
    OrthogonalTreesNetwork net(1, logCost(2));
    EXPECT_EQ(sortOtn(net, {3}).sorted, (std::vector<std::uint64_t>{3}));
}

TEST(SortOtn, ValueAtWordLimit)
{
    auto limit = WordFormat::forProblemSize(8).maxValue();
    std::vector<std::uint64_t> v{limit, 0, limit - 1, 1};
    // Four keys on a machine with N = 8 words: no registered shape.
    OrthogonalTreesNetwork net(v.size(), logCost(8));
    EXPECT_EQ(sortOtn(net, v).sorted, sortedCopy(v));
}

TEST(SortOtn, PartialLoadPadsWithNull)
{
    // 5 values on an 8x8 machine.
    std::vector<std::uint64_t> v{9, 2, 7, 2, 5};
    OrthogonalTreesNetwork net(8, logCost(8));
    EXPECT_EQ(sortOtn(net, v).sorted, sortedCopy(v));
}

// ------------------------------ SORT-OTN's data/accounting split

/**
 * SORT-OTN written out as the paper's per-tree pardos: one primitive
 * per tree per step, and step 3 as a baseOp lambda.  sortOtn's batch
 * primitives, which move the data row by row and replay the
 * accounting, must be indistinguishable from it.
 */
SortResult
perTreeSortOtn(OrthogonalTreesNetwork &net,
               const std::vector<std::uint64_t> &values)
{
    const std::size_t n = net.n();
    ModelTime start = net.now();
    net.setRowRootInputs(values);
    ot::sim::ScopedPhase phase(net.acct(), "sort-otn");

    net.parallelFor(n, [&](std::size_t i) {
        net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::A);
    });
    net.parallelFor(n, [&](std::size_t j) {
        net.leafToLeaf(Axis::Col, j, Sel::diag(), Reg::A, Sel::all(),
                       Reg::B);
    });
    net.baseOp(net.cost().bitSerialOp(), [&](std::size_t i, std::size_t j) {
        std::uint64_t a = net.reg(Reg::A, i, j);
        std::uint64_t b = net.reg(Reg::B, i, j);
        net.reg(Reg::F, i, j) = (a > b || (a == b && i > j)) ? 1 : 0;
    });
    net.parallelFor(n, [&](std::size_t i) {
        net.countLeafToLeaf(Axis::Row, i, Reg::F, Sel::all(), Reg::R);
    });
    net.parallelFor(n, [&](std::size_t j) {
        net.leafToRoot(Axis::Col, j, Sel::regEq(Reg::R, j), Reg::A);
    });

    SortResult result;
    result.sorted.assign(net.colRootOutputs().begin(),
                         net.colRootOutputs().begin() +
                             static_cast<long>(values.size()));
    result.time = net.now() - start;
    return result;
}

std::map<std::string, std::uint64_t>
counterValues(OrthogonalTreesNetwork &net)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, c] : net.stats().counters())
        out[name] = c.value();
    return out;
}

std::unique_ptr<OrthogonalTreesNetwork>
makeNet(bool emulated, std::size_t n)
{
    if (emulated)
        return std::make_unique<ot::otc::OtcEmulatedOtn>(n, logCost(n));
    return std::make_unique<OrthogonalTreesNetwork>(n, logCost(n));
}

TEST(SortOtn, MatchesPerTreeFormulation)
{
    std::vector<ot::simd::Backend> backends;
    for (auto b : {ot::simd::Backend::Scalar, ot::simd::Backend::Avx2})
        if (ot::simd::backendAvailable(b))
            backends.push_back(b);
    for (std::size_t n : {1, 2, 8, 64, 256}) {
        Rng rng(41 * n);
        // Duplicates, all-equal keys, and a partial load padded with
        // kNull.
        std::vector<std::uint64_t> dup(n), partial(n - n / 3);
        for (auto &x : dup)
            x = rng.uniform(0, n / 3);
        for (auto &x : partial)
            x = rng.uniform(0, n);
        const std::vector<std::uint64_t> inputs[] = {
            dup, std::vector<std::uint64_t>(n, n / 2), partial};
        for (const auto &v : inputs)
            for (bool emulated : {false, true})
                for (auto backend : backends)
                    for (bool traced : {false, true}) {
                        SCOPED_TRACE(::testing::Message()
                                     << "N=" << n << " m=" << v.size()
                                     << (emulated ? " emulated " : " ")
                                     << ot::simd::toString(backend)
                                     << (traced ? " traced" : " untraced"));
                        auto ref = makeNet(emulated, n);
                        auto net = makeNet(emulated, n);
                        ref->setSimdBackend(backend);
                        net->setSimdBackend(backend);
                        ot::trace::Tracer ref_trace, trace;
                        ref_trace.setEnabled(true);
                        trace.setEnabled(true);
                        if (traced) {
                            ref->setTracer(&ref_trace);
                            net->setTracer(&trace);
                        }
                        auto want = perTreeSortOtn(*ref, v);
                        auto got = sortOtn(*net, v);
                        EXPECT_EQ(got.sorted, sortedCopy(v));
                        EXPECT_EQ(got.sorted, want.sorted);
                        EXPECT_EQ(got.time, want.time);
                        for (unsigned r = 0; r < kNumRegs; ++r) {
                            const Reg reg = static_cast<Reg>(r);
                            EXPECT_TRUE(std::equal(
                                ref->regPlane(reg),
                                ref->regPlane(reg) + n * n,
                                net->regPlane(reg)))
                                << "plane " << r;
                        }
                        for (std::size_t i = 0; i < n; ++i) {
                            EXPECT_EQ(net->rowRoot(i), ref->rowRoot(i));
                            EXPECT_EQ(net->colRoot(i), ref->colRoot(i));
                        }
                        EXPECT_EQ(net->now(), ref->now());
                        EXPECT_EQ(net->acct().steps(), ref->acct().steps());
                        EXPECT_EQ(counterValues(*net), counterValues(*ref));
                        EXPECT_EQ(trace.dropped(), ref_trace.dropped());
                        ASSERT_EQ(trace.events().size(),
                                  ref_trace.events().size());
                        for (std::size_t e = 0; e < trace.events().size();
                             ++e)
                            ASSERT_TRUE(ot::trace::eventsEqual(
                                trace.events()[e], ref_trace.events()[e]))
                                << "event " << e;
                    }
    }
}

/** Property sweep: random inputs across sizes and seeds. */
class SortOtnRandom
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(SortOtnRandom, MatchesStdSort)
{
    auto [n, seed] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed));
    std::vector<std::uint64_t> v(n);
    auto limit = WordFormat::forProblemSize(n).maxValue();
    for (auto &x : v)
        x = rng.uniform(0, std::min<std::uint64_t>(limit, n * n - 1));
    EXPECT_EQ(registrySort(v).sorted, sortedCopy(v));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SortOtnRandom,
    ::testing::Combine(::testing::Values(2, 4, 8, 16, 32, 64),
                       ::testing::Values(1, 2, 3)));

TEST(SortOtn, DistinctPermutationSweep)
{
    Rng rng(99);
    for (std::size_t n : {8, 16, 32}) {
        auto v = rng.permutation(n);
        EXPECT_EQ(registrySort(v).sorted, sortedCopy(v));
    }
}

TEST(SortOtn, TimeShapeIsLogSquaredUnderThompson)
{
    // T(N) / log^2 N bounded over a wide sweep.
    double lo = 1e18, hi = 0;
    Rng rng(4);
    for (std::size_t n : {16, 64, 256, 1024}) {
        auto v = rng.permutation(n);
        auto r = registrySort(v);
        double logn = std::log2(static_cast<double>(n));
        double ratio = static_cast<double>(r.time) / (logn * logn);
        lo = std::min(lo, ratio);
        hi = std::max(hi, ratio);
    }
    EXPECT_LT(hi / lo, 8.0);
}

TEST(SortOtn, ConstantDelayIsAsymptoticallyFaster)
{
    Rng rng(5);
    std::size_t n = 512;
    auto v = rng.permutation(n);
    auto t_log = registrySort(v).time;
    auto t_const = registrySort(v, DelayModel::Constant).time;
    EXPECT_LT(t_const, t_log);
}

TEST(SortOtn, ScalingRecoversALogFactor)
{
    Rng rng(6);
    std::size_t n = 512;
    auto v = rng.permutation(n);
    EXPECT_LT(registrySort(v, DelayModel::Logarithmic, /*scaled=*/true).time,
              registrySort(v).time);
}

TEST(SortPipeline, AllProblemsSortedCorrectly)
{
    std::size_t n = 16;
    OrthogonalTreesNetwork net(n, logCost(n));
    Rng rng(7);
    std::vector<std::vector<std::uint64_t>> problems;
    for (int p = 0; p < 6; ++p)
        problems.push_back(rng.permutation(n));
    auto r = sortPipelineOtn(net, problems);
    ASSERT_EQ(r.sorted.size(), problems.size());
    for (std::size_t p = 0; p < problems.size(); ++p)
        EXPECT_EQ(r.sorted[p], sortedCopy(problems[p])) << "problem " << p;
}

TEST(SortPipeline, BeatIsMuchSmallerThanLatency)
{
    // Section VIII: one sorted set per O(log N) once the pipe fills.
    std::size_t n = 256;
    OrthogonalTreesNetwork net(n, logCost(n));
    Rng rng(8);
    std::vector<std::vector<std::uint64_t>> problems;
    for (int p = 0; p < 4; ++p)
        problems.push_back(rng.permutation(n));
    auto r = sortPipelineOtn(net, problems);
    EXPECT_LT(r.problemInterval * 4, r.firstLatency);
    EXPECT_EQ(r.totalTime,
              r.firstLatency + (problems.size() - 1) * r.problemInterval);
}

TEST(SortPipeline, ThroughputBeatsSequentialRuns)
{
    std::size_t n = 128;
    Rng rng(9);
    std::vector<std::vector<std::uint64_t>> problems;
    for (int p = 0; p < 7; ++p)
        problems.push_back(rng.permutation(n));

    OrthogonalTreesNetwork piped(n, logCost(n));
    auto t_piped = sortPipelineOtn(piped, problems).totalTime;

    OrthogonalTreesNetwork serial(n, logCost(n));
    for (const auto &p : problems)
        sortOtn(serial, p);
    EXPECT_LT(t_piped, serial.now());
}

TEST(SortPipeline, EmptyStream)
{
    OrthogonalTreesNetwork net(8, logCost(8));
    auto r = sortPipelineOtn(net, {});
    EXPECT_TRUE(r.sorted.empty());
    EXPECT_EQ(r.totalTime, 0u);
}


} // namespace
