/**
 * @file
 * Tests for the Section III graph algorithms on the OTN: connected
 * components (vs union-find) and minimum spanning tree (vs Kruskal),
 * including property sweeps over random graph families, and their
 * row-wise candidate steps against the per-cell formulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "graph/generators.hh"
#include "graph/reference_algorithms.hh"
#include "otc/emulated_otn.hh"
#include "otn/connected_components.hh"
#include "otn/mst.hh"
#include "otn/patterns.hh"
#include "sim/rng.hh"
#include "simd/backend.hh"
#include "trace/tracer.hh"
#include "vlsi/bitmath.hh"

namespace {

using namespace ot::otn;
using namespace ot::graph;
using ot::sim::Rng;
using ot::vlsi::CostModel;
using ot::vlsi::DelayModel;
using ot::vlsi::WordFormat;

CostModel
ccCost(std::size_t n)
{
    return {DelayModel::Logarithmic, WordFormat::forProblemSize(n)};
}

CostModel
mstCost(std::size_t n, std::uint64_t max_w)
{
    return {DelayModel::Logarithmic, mstWordFormat(n, max_w)};
}

TEST(CcOtn, PathGraph)
{
    Graph g(8);
    for (std::size_t v = 0; v + 1 < 8; ++v)
        g.addEdge(v, v + 1);
    OrthogonalTreesNetwork net(8, ccCost(8));
    auto r = connectedComponentsOtn(net, g);
    EXPECT_EQ(r.componentCount, 1u);
    EXPECT_EQ(r.labels, connectedComponents(g));
}

TEST(CcOtn, EdgelessGraph)
{
    Graph g(8);
    OrthogonalTreesNetwork net(8, ccCost(8));
    auto r = connectedComponentsOtn(net, g);
    EXPECT_EQ(r.componentCount, 8u);
    for (std::size_t v = 0; v < 8; ++v)
        EXPECT_EQ(r.labels[v], v);
}

TEST(CcOtn, TwoTriangles)
{
    Graph g(6);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 0);
    g.addEdge(3, 4);
    g.addEdge(4, 5);
    g.addEdge(5, 3);
    OrthogonalTreesNetwork net(8, ccCost(8));
    auto r = connectedComponentsOtn(net, g);
    EXPECT_EQ(r.componentCount, 2u);
    EXPECT_EQ(r.labels, connectedComponents(g));
}

TEST(CcOtn, StarWithLargeCenterLabel)
{
    // The case that stalls naive min-hooking: the centre has the
    // largest label and every leaf sees only the centre.
    Graph g(8);
    for (std::size_t v = 0; v < 7; ++v)
        g.addEdge(7, v);
    OrthogonalTreesNetwork net(8, ccCost(8));
    auto r = connectedComponentsOtn(net, g);
    EXPECT_EQ(r.componentCount, 1u);
}

TEST(CcOtn, AdversarialChainOfPairs)
{
    // Pairs (0,1), (2,3), ... then a bridge chain across pairs: forces
    // repeated hooks and jumps.
    Graph g(16);
    for (std::size_t v = 0; v < 16; v += 2)
        g.addEdge(v, v + 1);
    for (std::size_t v = 1; v + 2 < 16; v += 4)
        g.addEdge(v, v + 2);
    OrthogonalTreesNetwork net(16, ccCost(16));
    auto r = connectedComponentsOtn(net, g);
    EXPECT_EQ(r.labels, connectedComponents(g));
}

/** Property sweep over G(n, p) and planted components. */
class CcOtnRandom : public ::testing::TestWithParam<
                        std::tuple<std::size_t, double, int>>
{
};

TEST_P(CcOtnRandom, MatchesUnionFind)
{
    auto [n, p, seed] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) * 1000 + n);
    auto g = randomGnp(n, p, rng);
    OrthogonalTreesNetwork net(n, ccCost(n));
    auto r = connectedComponentsOtn(net, g);
    EXPECT_EQ(r.labels, connectedComponents(g));
    EXPECT_EQ(r.componentCount, componentCount(g));
}

INSTANTIATE_TEST_SUITE_P(
    Gnp, CcOtnRandom,
    ::testing::Combine(::testing::Values(4, 8, 16, 32),
                       ::testing::Values(0.05, 0.15, 0.5),
                       ::testing::Values(1, 2, 3)));

TEST(CcOtn, PlantedComponentSweep)
{
    Rng rng(77);
    for (std::size_t c : {1, 2, 4, 7}) {
        auto g = plantedComponents(32, c, 3, rng);
        OrthogonalTreesNetwork net(32, ccCost(32));
        auto r = connectedComponentsOtn(net, g);
        EXPECT_EQ(r.componentCount, c);
        EXPECT_EQ(r.labels, connectedComponents(g));
    }
}

TEST(CcOtn, PaddedVerticesDoNotLeak)
{
    // 5 vertices on an 8x8 machine: padding must stay isolated.
    Graph g(5);
    g.addEdge(0, 4);
    g.addEdge(1, 2);
    OrthogonalTreesNetwork net(8, ccCost(8));
    auto r = connectedComponentsOtn(net, g);
    EXPECT_EQ(r.labels, connectedComponents(g));
    EXPECT_EQ(r.labels.size(), 5u);
}

TEST(CcOtn, TimeShapeIsLog4UnderThompson)
{
    // T(N) / log^4 N bounded across the sweep (Table III row).
    double lo = 1e18, hi = 0;
    Rng rng(5);
    for (std::size_t n : {16, 32, 64, 128}) {
        auto g = randomGnp(n, 2.0 / static_cast<double>(n), rng);
        OrthogonalTreesNetwork net(n, ccCost(n));
        auto r = connectedComponentsOtn(net, g, /*charge_load=*/false);
        double logn = std::log2(static_cast<double>(n));
        double ratio = static_cast<double>(r.time) / std::pow(logn, 4);
        lo = std::min(lo, ratio);
        hi = std::max(hi, ratio);
    }
    EXPECT_LT(hi / lo, 10.0);
}

TEST(MstOtn, TriangleWithObviousMst)
{
    WeightedGraph g(3);
    g.addEdge(0, 1, 1);
    g.addEdge(1, 2, 2);
    g.addEdge(0, 2, 3);
    OrthogonalTreesNetwork net(4, mstCost(4, 3));
    auto r = mstOtn(net, g);
    ASSERT_EQ(r.edges.size(), 2u);
    EXPECT_EQ(r.totalWeight, 3u);
    EXPECT_TRUE(isSpanningForest(g, r.edges));
}

TEST(MstOtn, MatchesKruskalOnSmallGraphs)
{
    Rng rng(21);
    for (std::size_t n : {2, 4, 8, 16}) {
        auto g = randomWeightedConnected(n, n, rng);
        OrthogonalTreesNetwork net(n, mstCost(n, n * n));
        auto r = mstOtn(net, g);
        auto expect = kruskalMsf(g);
        EXPECT_EQ(r.edges, expect) << "n = " << n;
        EXPECT_EQ(r.totalWeight, totalWeight(expect));
    }
}

TEST(MstOtn, CompleteGraphSweep)
{
    Rng rng(22);
    for (std::size_t n : {4, 8, 12}) {
        auto g = randomWeightedComplete(n, rng);
        OrthogonalTreesNetwork net(n, mstCost(n, n * n));
        auto r = mstOtn(net, g);
        EXPECT_EQ(r.edges, kruskalMsf(g)) << "n = " << n;
    }
}

TEST(MstOtn, DisconnectedGraphGivesForest)
{
    WeightedGraph g(6);
    g.addEdge(0, 1, 4);
    g.addEdge(1, 2, 2);
    g.addEdge(3, 4, 5);
    OrthogonalTreesNetwork net(8, mstCost(8, 5));
    auto r = mstOtn(net, g);
    EXPECT_EQ(r.edges.size(), 3u);
    EXPECT_TRUE(isSpanningForest(g, r.edges));
    EXPECT_EQ(r.edges, kruskalMsf(g));
}

TEST(MstOtn, EdgelessGraph)
{
    WeightedGraph g(4);
    OrthogonalTreesNetwork net(4, mstCost(4, 1));
    auto r = mstOtn(net, g);
    EXPECT_TRUE(r.edges.empty());
    EXPECT_EQ(r.totalWeight, 0u);
}

/** Property sweep: MST on random connected weighted graphs. */
class MstOtnRandom
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(MstOtnRandom, MatchesKruskal)
{
    auto [n, seed] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) * 31 + n);
    auto g = randomWeightedConnected(n, 2 * n, rng);
    OrthogonalTreesNetwork net(n, mstCost(n, n * n));
    auto r = mstOtn(net, g);
    EXPECT_EQ(r.edges, kruskalMsf(g));
    EXPECT_TRUE(isSpanningForest(g, r.edges));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MstOtnRandom,
    ::testing::Combine(::testing::Values(4, 8, 16, 24, 32),
                       ::testing::Values(1, 2, 3)));

TEST(MstOtn, TimeShapeIsLog4UnderThompson)
{
    double lo = 1e18, hi = 0;
    Rng rng(23);
    for (std::size_t n : {16, 32, 64}) {
        auto g = randomWeightedConnected(n, n, rng);
        OrthogonalTreesNetwork net(n, mstCost(n, n * n));
        auto r = mstOtn(net, g, /*charge_load=*/false);
        double logn = std::log2(static_cast<double>(n));
        double ratio = static_cast<double>(r.time) / std::pow(logn, 4);
        lo = std::min(lo, ratio);
        hi = std::max(hi, ratio);
    }
    EXPECT_LT(hi / lo, 10.0);
}

TEST(MstWordFormat, FitsPackedEdges)
{
    auto wf = mstWordFormat(64, 64 * 64);
    // Packed (w, u, v): 6 + 6 index bits + 13 weight bits + spare.
    EXPECT_GE(wf.bits(), 25u);
    EXPECT_LT(wf.bits(), 40u);
}

// ------------------------------------------------- candidate steps

/** CONNECT step (2) as one per-cell baseOp: the specification of
 *  connectCandidatesOtn. */
void
perCellConnectCandidates(OrthogonalTreesNetwork &net)
{
    const OrthogonalTreesNetwork &view = net;
    net.baseOp(net.cost().bitSerialOp(), [&](std::size_t i, std::size_t j) {
        bool edge = view.reg(Reg::A, i, j) == 1;
        std::uint64_t mine = view.reg(Reg::B, i, j);
        std::uint64_t theirs = view.reg(Reg::C, i, j);
        net.reg(Reg::T, i, j) = (edge && theirs != mine) ? theirs : kNull;
    });
}

/** Boruvka's candidate step as one per-cell baseOp: the specification
 *  of mstCandidatesOtn. */
void
perCellMstCandidates(OrthogonalTreesNetwork &net, unsigned idx_bits)
{
    const OrthogonalTreesNetwork &view = net;
    net.baseOp(net.cost().bitSerialOp(), [&](std::size_t i, std::size_t j) {
        std::uint64_t w = view.reg(Reg::A, i, j);
        bool foreign = view.reg(Reg::B, i, j) != view.reg(Reg::C, i, j);
        net.reg(Reg::T, i, j) =
            (w != kNull && foreign)
                ? (w << (2 * idx_bits)) | (i << idx_bits) | j
                : kNull;
    });
}

/** Load `base` into A and fan `labels` out as the candidate steps see
 *  them: D on the diagonal, B = D along rows, C = D down columns. */
void
loadCandidateState(OrthogonalTreesNetwork &net,
                   const ot::linalg::IntMatrix &base,
                   const std::vector<std::uint64_t> &labels)
{
    net.loadBase(Reg::A, base);
    net.baseOpDiag(net.cost().bitSerialOp(), [&](std::size_t i) {
        net.reg(Reg::D, i, i) = labels[i];
    });
    diagToRows(net, Reg::D, Reg::B);
    diagToCols(net, Reg::D, Reg::C);
}

std::map<std::string, std::uint64_t>
counterValues(OrthogonalTreesNetwork &net)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, c] : net.stats().counters())
        out[name] = c.value();
    return out;
}

/**
 * Run the per-cell step `spec` on one network and the derived step
 * `step` on another, each followed by step (3)'s row minima of T, from
 * the same A and two rounds of labels (the identity, as in the first
 * iteration, then `labels`), on the OTN and the OTC-emulated OTN, every
 * compiled backend, traced and untraced; every plane (T expanded from
 * its shape), root, clock, counter and trace event must agree.
 */
template <typename Spec, typename Step>
void
expectCandidateStepsAgree(std::size_t n, const CostModel &cost,
                          const ot::linalg::IntMatrix &base,
                          const std::vector<std::uint64_t> &labels,
                          Spec &&spec, Step &&step)
{
    std::vector<std::uint64_t> identity(n);
    for (std::size_t i = 0; i < n; ++i)
        identity[i] = i;
    for (bool emulated : {false, true})
        for (auto backend :
             {ot::simd::Backend::Scalar, ot::simd::Backend::Avx2}) {
            if (!ot::simd::backendAvailable(backend))
                continue;
            for (bool traced : {false, true}) {
                SCOPED_TRACE(::testing::Message()
                             << "N=" << n << (emulated ? " emulated " : " ")
                             << ot::simd::toString(backend)
                             << (traced ? " traced" : " untraced"));
                auto make = [&]() -> std::unique_ptr<OrthogonalTreesNetwork> {
                    if (emulated)
                        return std::make_unique<ot::otc::OtcEmulatedOtn>(
                            n, cost);
                    return std::make_unique<OrthogonalTreesNetwork>(n, cost);
                };
                auto ref = make();
                auto net = make();
                ref->setSimdBackend(backend);
                net->setSimdBackend(backend);
                ot::trace::Tracer ref_trace, trace;
                ref_trace.setEnabled(true);
                trace.setEnabled(true);
                if (traced) {
                    ref->setTracer(&ref_trace);
                    net->setTracer(&trace);
                }
                const std::vector<std::uint64_t> *rounds[] = {&identity,
                                                              &labels};
                for (const auto *round : rounds) {
                    loadCandidateState(*ref, base, *round);
                    loadCandidateState(*net, base, *round);
                    spec(*ref);
                    step(*net);
                    ref->batchMinRowsToLeaves(Reg::T, Sel::all(), Reg::E);
                    net->batchMinRowsToLeaves(Reg::T, Sel::all(), Reg::E);
                }
                for (unsigned r = 0; r < kNumRegs; ++r) {
                    const Reg reg = static_cast<Reg>(r);
                    EXPECT_TRUE(std::equal(ref->regPlane(reg),
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
                ASSERT_EQ(trace.events().size(), ref_trace.events().size());
                for (std::size_t e = 0; e < trace.events().size(); ++e)
                    ASSERT_TRUE(ot::trace::eventsEqual(trace.events()[e],
                                                       ref_trace.events()[e]))
                        << "event " << e;
            }
        }
}

/** Vertex counts for a side-n machine: a full base, and fewer vertices
 *  than n so the padding rows and columns are covered. */
std::vector<std::size_t>
vertexCounts(std::size_t n)
{
    return {n, (n + 1) / 2};
}

/** n random labels in [0, n). */
std::vector<std::uint64_t>
randomLabels(std::size_t n, Rng &rng)
{
    std::vector<std::uint64_t> labels(n);
    for (auto &l : labels)
        l = rng.uniform(0, n - 1);
    return labels;
}

TEST(CcOtn, CandidateStepMatchesPerCellFormulation)
{
    for (std::size_t n : {1, 2, 16, 32, 64})
        for (std::size_t m : vertexCounts(n)) {
            Rng rng(31 * n + m);
            auto g = randomGnp(m, 3.0 / static_cast<double>(m), rng);
            ot::linalg::IntMatrix adj(n, n, 0);
            for (std::size_t i = 0; i < m; ++i)
                for (std::size_t j = 0; j < m; ++j)
                    adj(i, j) = g.hasEdge(i, j) ? 1 : 0;
            SCOPED_TRACE(::testing::Message() << "m=" << m);
            expectCandidateStepsAgree(
                n, ccCost(n), adj, randomLabels(n, rng),
                perCellConnectCandidates,
                [](OrthogonalTreesNetwork &net) {
                    connectCandidatesOtn(net);
                });
        }
}

TEST(MstOtn, CandidateStepMatchesPerCellFormulation)
{
    for (std::size_t n : {1, 2, 16, 32, 64})
        for (std::size_t m : vertexCounts(n)) {
            Rng rng(37 * n + m);
            auto g = randomWeightedConnected(m, m, rng);
            // Padding rows and columns hold kNull weights, as in mstOtn.
            ot::linalg::IntMatrix w(n, n, kNull);
            for (std::size_t i = 0; i < m; ++i)
                for (std::size_t j = 0; j < m; ++j)
                    if (g.hasEdge(i, j))
                        w(i, j) = g.weight(i, j);
            const unsigned idx_bits = ot::vlsi::logCeilAtLeast1(n);
            SCOPED_TRACE(::testing::Message() << "m=" << m);
            expectCandidateStepsAgree(
                n, mstCost(n, 2 * m), w, randomLabels(n, rng),
                [&](OrthogonalTreesNetwork &net) {
                    perCellMstCandidates(net, idx_bits);
                },
                [&](OrthogonalTreesNetwork &net) {
                    mstCandidatesOtn(net, idx_bits);
                });
        }
}

} // namespace
