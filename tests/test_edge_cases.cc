/**
 * @file
 * Edge-case and robustness tests across the library: degenerate
 * machine sizes, word-width boundaries, layout parameter variations,
 * bit math against the standard library, CSV rendering, and
 * sentinel-value consistency.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "orthotree/orthotree.hh"

namespace {

using namespace ot;
using sim::Rng;
using vlsi::CostModel;
using vlsi::DelayModel;
using vlsi::WordFormat;

CostModel
logCost(std::size_t n)
{
    return {DelayModel::Logarithmic, WordFormat::forProblemSize(n)};
}

// -------------------------------------------------- degenerate sizes

TEST(EdgeCases, OneByOneOtn)
{
    otn::OrthogonalTreesNetwork net(1, logCost(2));
    EXPECT_EQ(net.n(), 1u);
    net.rowRoot(0) = 2;
    net.rootToLeaf(otn::Axis::Row, 0, otn::Sel::all(), otn::Reg::A);
    EXPECT_EQ(net.reg(otn::Reg::A, 0, 0), 2u);
    net.leafToRoot(otn::Axis::Col, 0, otn::Sel::all(), otn::Reg::A);
    EXPECT_EQ(net.colRoot(0), 2u);
}

TEST(EdgeCases, TwoElementSortEveryOrder)
{
    for (auto v : {std::vector<std::uint64_t>{0, 1},
                   std::vector<std::uint64_t>{1, 0},
                   std::vector<std::uint64_t>{1, 1}}) {
        auto expect = v;
        std::sort(expect.begin(), expect.end());
        auto m = topo::registry().build(topo::resolveSpec(
            "otn", topo::Algo::Sort, 2, DelayModel::Logarithmic, false));
        EXPECT_EQ(m->runSort(v).sorted, expect);
    }
}

TEST(EdgeCases, EmptySortInput)
{
    otn::OrthogonalTreesNetwork net(4, logCost(4));
    auto r = otn::sortOtn(net, {});
    EXPECT_TRUE(r.sorted.empty());
}

TEST(EdgeCases, OtcWithCycleLengthOne)
{
    // L = 1 degenerates to an OTN-like machine; everything must still
    // work (the wrap wire is the only cycle wire).
    otc::OtcNetwork net(4, 1, logCost(4));
    net.rowStream(2) = {9};
    net.rootToCycle(otc::Axis::Row, 2, otc::CSel::all(), otn::Reg::A);
    for (std::size_t j = 0; j < 4; ++j)
        EXPECT_EQ(net.reg(otn::Reg::A, 2, j, 0), 9u);
    net.circulate(2, 1, {otn::Reg::A});
    EXPECT_EQ(net.reg(otn::Reg::A, 2, 1, 0), 9u); // rotation of 1 = id
}

TEST(EdgeCases, SortOtcSingleValue)
{
    // N = 1: one cycle of length 1 (the registry builds N >= 2).
    otc::OtcNetwork net(1, 1, logCost(2));
    EXPECT_EQ(otc::sortOtc(net, {3}).sorted,
              (std::vector<std::uint64_t>{3}));
}

TEST(EdgeCases, GraphWithOneVertex)
{
    graph::Graph g(1);
    otn::OrthogonalTreesNetwork net(1, logCost(2));
    auto r = otn::connectedComponentsOtn(net, g);
    EXPECT_EQ(r.componentCount, 1u);
    EXPECT_EQ(r.labels, (std::vector<std::size_t>{0}));
}

TEST(EdgeCases, CompleteGraphCollapsesInOneHook)
{
    std::size_t n = 16;
    graph::Graph g(n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
            g.addEdge(i, j);
    otn::OrthogonalTreesNetwork net(n, logCost(n));
    auto r = otn::connectedComponentsOtn(net, g);
    EXPECT_EQ(r.componentCount, 1u);
}

// -------------------------------------------------- word boundaries

TEST(EdgeCases, WordExactlyAtMaxValue)
{
    otn::OrthogonalTreesNetwork net(4, logCost(4));
    auto max = net.cost().word().maxValue();
    EXPECT_TRUE(net.fitsWord(max));
    EXPECT_FALSE(net.fitsWord(max + 1));
    EXPECT_TRUE(net.fitsWord(otn::kNull)); // NULL always legal
}

TEST(EdgeCases, SumReductionCanExceedInputWords)
{
    // COUNT/SUM results may need the full 2 log N bits: summing N
    // flags of 1 yields N, which must fit.
    std::size_t n = 16;
    otn::OrthogonalTreesNetwork net(n, logCost(n));
    net.fillReg(otn::Reg::F, 1);
    net.countLeafToRoot(otn::Axis::Row, 0, otn::Reg::F);
    EXPECT_EQ(net.rowRoot(0), n);
    EXPECT_TRUE(net.fitsWord(net.rowRoot(0)));
}

// ---------------------------------------------- layout parameters

TEST(EdgeCases, LayoutParamsScaleAreaMonotonically)
{
    layout::LayoutParams small{.baseCell = 1, .track = 1};
    layout::LayoutParams big{.baseCell = 6, .track = 3};
    layout::OtnLayout a(32, 10, small);
    layout::OtnLayout b(32, 10, big);
    EXPECT_LT(a.metrics().area(), b.metrics().area());
    EXPECT_LT(a.pitch(), b.pitch());
    // Processor counts are layout-independent.
    EXPECT_EQ(a.metrics().processors, b.metrics().processors);
}

TEST(EdgeCases, TreeEmbeddingSingleLeaf)
{
    layout::TreeEmbedding t(1, 4);
    EXPECT_EQ(t.leaves(), 1u);
    EXPECT_EQ(t.height(), 0u);
    EXPECT_TRUE(t.pathEdges().empty());
    EXPECT_EQ(t.internalNodes(), 0u);
    EXPECT_EQ(t.totalWireLength(), 0u);
}

TEST(EdgeCases, CostOnEmptyPathIsJustBits)
{
    CostModel cm(DelayModel::Logarithmic, WordFormat(8));
    std::vector<vlsi::WireLength> none;
    EXPECT_EQ(cm.pathLatency(none), 0u);
    EXPECT_EQ(cm.wordAlongPath(none), 7u);
}

// ------------------------------------------------ bit math vs <bit>

TEST(EdgeCases, BitMathMatchesStandardLibrary)
{
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t x = rng.uniform(1, (1ULL << 48));
        EXPECT_EQ(vlsi::ilog2Floor(x),
                  static_cast<unsigned>(std::bit_width(x) - 1));
        EXPECT_EQ(vlsi::nextPow2(x), std::bit_ceil(x));
        EXPECT_EQ(vlsi::isPow2(x), std::has_single_bit(x));
    }
}

TEST(EdgeCases, ReverseBitsIsInvolution)
{
    Rng rng(2);
    for (int i = 0; i < 500; ++i) {
        unsigned bits = static_cast<unsigned>(rng.uniform(1, 20));
        std::uint64_t x = rng.uniform(0, (1ULL << bits) - 1);
        EXPECT_EQ(vlsi::reverseBits(vlsi::reverseBits(x, bits), bits), x);
    }
}

// ------------------------------------------------------ CSV output

TEST(EdgeCases, TextTableCsv)
{
    analysis::TextTable t({"a", "b"});
    t.addRow({"1", "x,y"});
    t.addRow({"2", "he said \"hi\""});
    auto csv = t.csv();
    EXPECT_EQ(csv, "a,b\n1,\"x,y\"\n2,\"he said \"\"hi\"\"\"\n");
}

// ---------------------------------------------- sentinel coherence

TEST(EdgeCases, NullSentinelsAgree)
{
    // One all-ones sentinel across the library: the OTN's NULL, the
    // graph module's "no edge" is narrower but the unreachable
    // distance equals kNull — MIN reductions and saturating adds treat
    // them uniformly.
    EXPECT_EQ(otn::kNull, graph::kUnreachable);
    EXPECT_EQ(otn::kNull, ~std::uint64_t{0});
}

TEST(EdgeCases, StatsResetClearsCounters)
{
    otn::OrthogonalTreesNetwork net(4, logCost(4));
    net.rowRoot(0) = 1;
    net.rootToLeaf(otn::Axis::Row, 0, otn::Sel::all(), otn::Reg::A);
    EXPECT_GT(net.stats().counter("otn.rootToLeaf").value(), 0u);
    EXPECT_GT(net.now(), 0u);
    net.resetTime();
    EXPECT_EQ(net.stats().counter("otn.rootToLeaf").value(), 0u);
    EXPECT_EQ(net.now(), 0u);
}

TEST(EdgeCases, HexArraySizeOne)
{
    topo::HexMachine hex(
        {.topo = "hex", .n = 1, .wordBits = logCost(2).word().bits()});
    auto a = linalg::IntMatrix::fromRows({{3}});
    auto b = linalg::IntMatrix::fromRows({{2}});
    EXPECT_EQ(hex.runMatMul(a, b).product(0, 0), 6u);
}

TEST(EdgeCases, MeshOfTrees3dSizeOne)
{
    otn::MeshOfTrees3d mot(1, logCost(2));
    auto a = linalg::IntMatrix::fromRows({{3}});
    EXPECT_EQ(mot.matMul(a, a).product(0, 0), 9u);
}

TEST(EdgeCases, PipelineWithSingleProblem)
{
    otn::OrthogonalTreesNetwork net(8, logCost(8));
    auto r = otn::sortPipelineOtn(net, {{5, 1, 3}});
    ASSERT_EQ(r.sorted.size(), 1u);
    EXPECT_EQ(r.sorted[0], (std::vector<std::uint64_t>{1, 3, 5}));
    EXPECT_EQ(r.totalTime, r.firstLatency);
}

TEST(EdgeCases, MstOnTwoVertices)
{
    graph::WeightedGraph g(2);
    g.addEdge(0, 1, 7);
    CostModel cm(DelayModel::Logarithmic, otn::mstWordFormat(2, 7));
    otn::OrthogonalTreesNetwork net(2, cm);
    auto r = otn::mstOtn(net, g);
    ASSERT_EQ(r.edges.size(), 1u);
    EXPECT_EQ(r.edges[0], (graph::Edge{0, 1, 7}));
}

} // namespace
