/**
 * @file
 * Tests for the OTN machine itself: register file, the Section II-B
 * primitives (ROOTTOLEAF, LEAFTOROOT, COUNT/SUM/MIN, LEAFTOLEAF), the
 * pardo cost semantics and the model-time accounting.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "otn/network.hh"
#include "otn/patterns.hh"

namespace {

using namespace ot::otn;
using ot::vlsi::CostModel;
using ot::vlsi::DelayModel;
using ot::vlsi::WordFormat;

CostModel
logCost(std::size_t n)
{
    return {DelayModel::Logarithmic, WordFormat::forProblemSize(n)};
}

TEST(OtnNetwork, RoundsSizeToPowerOfTwo)
{
    OrthogonalTreesNetwork net(5, logCost(5));
    EXPECT_EQ(net.n(), 8u);
}

TEST(OtnNetwork, RegistersStartZeroAndAreAddressable)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    EXPECT_EQ(net.reg(Reg::A, 3, 2), 0u);
    net.reg(Reg::A, 3, 2) = 77;
    EXPECT_EQ(net.reg(Reg::A, 3, 2), 77u);
    EXPECT_EQ(net.reg(Reg::B, 3, 2), 0u);
}

TEST(OtnNetwork, FillReg)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    net.fillReg(Reg::C, 9);
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = 0; j < 4; ++j)
            EXPECT_EQ(net.reg(Reg::C, i, j), 9u);
}

TEST(OtnNetwork, RootToLeafBroadcastsRowRoot)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    net.rowRoot(1) = 42;
    net.rootToLeaf(Axis::Row, 1, Sel::all(), Reg::A);
    for (std::size_t j = 0; j < 4; ++j)
        EXPECT_EQ(net.reg(Reg::A, 1, j), 42u);
    // Other rows untouched.
    EXPECT_EQ(net.reg(Reg::A, 0, 0), 0u);
}

TEST(OtnNetwork, RootToLeafHonoursSelector)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    net.rowRoot(0) = 5;
    net.rootToLeaf(Axis::Row, 0, Sel::evenAlong(Axis::Row), Reg::A);
    EXPECT_EQ(net.reg(Reg::A, 0, 0), 5u);
    EXPECT_EQ(net.reg(Reg::A, 0, 1), 0u);
    EXPECT_EQ(net.reg(Reg::A, 0, 2), 5u);
    EXPECT_EQ(net.reg(Reg::A, 0, 3), 0u);
}

TEST(OtnNetwork, LeafToRootPicksUniqueLeaf)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    net.reg(Reg::B, 2, 0) = 13; // column 0, row 2
    net.leafToRoot(Axis::Col, 0, Sel::rowIs(2), Reg::B);
    EXPECT_EQ(net.colRoot(0), 13u);
}

TEST(OtnNetwork, LeafToRootWithNoSelectionYieldsNull)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    net.leafToRoot(Axis::Col, 1, Sel::none(), Reg::A);
    EXPECT_EQ(net.colRoot(1), kNull);
}

TEST(OtnNetwork, CountLeafToRootCountsFlags)
{
    OrthogonalTreesNetwork net(8, logCost(8));
    net.reg(Reg::F, 3, 0) = 1;
    net.reg(Reg::F, 3, 2) = 1;
    net.reg(Reg::F, 3, 7) = 1;
    net.countLeafToRoot(Axis::Row, 3, Reg::F);
    EXPECT_EQ(net.rowRoot(3), 3u);
}

TEST(OtnNetwork, SumLeafToRootRespectsSelector)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    for (std::size_t j = 0; j < 4; ++j)
        net.reg(Reg::A, 0, j) = j + 1; // 1, 2, 3, 4
    net.sumLeafToRoot(Axis::Row, 0, Sel::all(), Reg::A);
    EXPECT_EQ(net.rowRoot(0), 10u);
    net.sumLeafToRoot(Axis::Row, 0, Sel::evenAlong(Axis::Row), Reg::A);
    EXPECT_EQ(net.rowRoot(0), 4u); // 1 + 3
}

TEST(OtnNetwork, MinLeafToRootIgnoresNull)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    net.fillReg(Reg::A, kNull);
    net.reg(Reg::A, 1, 2) = 9;
    net.reg(Reg::A, 2, 2) = 4;
    net.minLeafToRoot(Axis::Col, 2, Sel::all(), Reg::A);
    EXPECT_EQ(net.colRoot(2), 4u);
}

TEST(OtnNetwork, MinOfNothingIsNull)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    net.fillReg(Reg::A, kNull);
    net.minLeafToRoot(Axis::Col, 0, Sel::all(), Reg::A);
    EXPECT_EQ(net.colRoot(0), kNull);
}

TEST(OtnNetwork, LeafToLeafMovesWordWithinVector)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    net.reg(Reg::A, 2, 2) = 31;
    // Column 2: take row 2's A to everyone's B.
    net.leafToLeaf(Axis::Col, 2, Sel::rowIs(2), Reg::A, Sel::all(), Reg::B);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(net.reg(Reg::B, i, 2), 31u);
}

TEST(OtnNetwork, BaseOpTouchesEveryBp)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    net.baseOp(net.cost().bitSerialOp(), [&](std::size_t i, std::size_t j) {
        net.reg(Reg::X, i, j) = i * 10 + j;
    });
    EXPECT_EQ(net.reg(Reg::X, 3, 1), 31u);
    EXPECT_EQ(net.reg(Reg::X, 0, 0), 0u);
}

TEST(OtnNetwork, ChargesAdvanceClock)
{
    OrthogonalTreesNetwork net(8, logCost(8));
    EXPECT_EQ(net.now(), 0u);
    net.rowRoot(0) = 1;
    auto dt = net.rootToLeaf(Axis::Row, 0, Sel::all(), Reg::A);
    EXPECT_GT(dt, 0u);
    EXPECT_EQ(net.now(), dt);
}

TEST(OtnNetwork, ParallelForChargesMaxOfChains)
{
    OrthogonalTreesNetwork net(8, logCost(8));
    ModelTime one = net.treeTraversalCost();
    net.resetTime();
    // Two sequential ops per iteration, across all 8 rows in parallel:
    // should cost 2 * one, not 16 * one.
    net.parallelFor(8, [&](std::size_t i) {
        net.rowRoot(i) = i;
        net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::A);
        net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::B);
    });
    EXPECT_EQ(net.now(), 2 * one);
}

TEST(OtnNetwork, UnevenChainsChargeTheMax)
{
    const std::size_t n = 8;
    OrthogonalTreesNetwork net(n, logCost(n));
    ModelTime one = net.treeTraversalCost();
    // Row i's chain is (i % 3) + 1 traversals long; the pardo must
    // charge exactly the longest chain, as one step.
    ModelTime charged = net.parallelFor(n, [&](std::size_t i) {
        for (std::size_t rep = 0; rep <= i % 3; ++rep)
            net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::A);
    });
    EXPECT_EQ(charged, 3 * one);
    EXPECT_EQ(net.now(), 3 * one);
    EXPECT_EQ(net.acct().steps(), 1u);
}

TEST(OtnNetwork, NestedParallelForComposes)
{
    // The outer iterations of this synthetic nest deliberately touch
    // the SAME rows; pardo iterations run in order, so that is safe.
    OrthogonalTreesNetwork net(4, logCost(4));
    ModelTime one = net.treeTraversalCost();
    net.resetTime();
    net.parallelFor(4, [&](std::size_t i) {
        net.parallelFor(4, [&](std::size_t j) {
            net.rowRoot(j) = j;
            net.rootToLeaf(Axis::Row, j, Sel::all(), Reg::A);
        });
        net.rowRoot(i) = i;
        net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::B);
    });
    // Each outer iteration: inner pardo (one) + one more op = 2 * one.
    EXPECT_EQ(net.now(), 2 * one);
}

TEST(OtnNetwork, NestedParallelForChargesTheLongestInnerChain)
{
    // The outer pardo splits the rows in halves and the inner pardo
    // works each half's rows; row r's chain is (r % 4) + 1 traversals.
    const std::size_t n = 8;
    OrthogonalTreesNetwork net(n, logCost(n));
    ModelTime one = net.treeTraversalCost();
    ModelTime charged = net.parallelFor(2, [&](std::size_t half) {
        net.parallelFor(n / 2, [&](std::size_t r) {
            std::size_t row = half * (n / 2) + r;
            net.rowRoot(row) = row;
            for (std::size_t rep = 0; rep <= row % 4; ++rep)
                net.rootToLeaf(Axis::Row, row, Sel::all(), Reg::C);
        });
    });
    EXPECT_EQ(charged, 4 * one);
    EXPECT_EQ(net.now(), 4 * one);
    auto c = net.readBase(Reg::C);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            ASSERT_EQ(c(i, j), i) << "@(" << i << "," << j << ")";
}

TEST(OtnNetwork, RunUnchargedStopsClock)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    net.rowRoot(0) = 3;
    ModelTime would = net.runUncharged(
        [&] { net.rootToLeaf(Axis::Row, 0, Sel::all(), Reg::A); });
    EXPECT_GT(would, 0u);
    EXPECT_EQ(net.now(), 0u);
    // The data still moved.
    EXPECT_EQ(net.reg(Reg::A, 0, 2), 3u);
}

TEST(OtnNetwork, RunUnchargedComposesWithParallelFor)
{
    // The pipedo idiom: the would-be cost of a parallel section, with
    // the clock stopped.
    const std::size_t n = 8;
    OrthogonalTreesNetwork net(n, logCost(n));
    for (std::size_t i = 0; i < n; ++i)
        net.rowRoot(i) = i;
    ModelTime would = net.runUncharged([&] {
        net.parallelFor(n, [&](std::size_t i) {
            net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::A);
            net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::B);
        });
    });
    EXPECT_EQ(would, 2 * net.treeTraversalCost());
    EXPECT_EQ(net.now(), 0u);
}

TEST(OtnNetwork, TraversalCostIsLog2UnderThompson)
{
    // ROOTTOLEAF should scale ~ log^2 N under the log-delay model
    // (Section II-B): ratio t(N) / log^2(N) stays bounded.
    double lo = 1e18, hi = 0;
    for (std::size_t n : {16, 64, 256, 1024}) {
        OrthogonalTreesNetwork net(n, logCost(n));
        double logn = std::log2(static_cast<double>(n));
        double ratio =
            static_cast<double>(net.treeTraversalCost()) / (logn * logn);
        lo = std::min(lo, ratio);
        hi = std::max(hi, ratio);
    }
    EXPECT_LT(hi / lo, 6.0);
}

TEST(OtnNetwork, TraversalCostIsLogUnderConstantDelay)
{
    // Section VII-D: O(log N) under the constant-delay model.
    double lo = 1e18, hi = 0;
    for (std::size_t n : {16, 64, 256, 1024}) {
        CostModel cm(DelayModel::Constant, WordFormat::forProblemSize(n));
        OrthogonalTreesNetwork net(n, cm);
        double ratio = static_cast<double>(net.treeTraversalCost()) /
                       std::log2(static_cast<double>(n));
        lo = std::min(lo, ratio);
        hi = std::max(hi, ratio);
    }
    EXPECT_LT(hi / lo, 6.0);
}

TEST(OtnNetwork, ScaledTreesBeatPlainThompson)
{
    // Thompson's scaling [31] shaves a log N factor.
    std::size_t n = 256;
    CostModel plain(DelayModel::Logarithmic, WordFormat::forProblemSize(n));
    CostModel scaled(DelayModel::Logarithmic, WordFormat::forProblemSize(n),
                     /*scaled_trees=*/true);
    OrthogonalTreesNetwork p(n, plain), s(n, scaled);
    EXPECT_GT(p.treeTraversalCost(), s.treeTraversalCost());
}

TEST(OtnNetwork, LoadAndReadBase)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    auto m = ot::linalg::IntMatrix::fromRows(
        {{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 1, 2, 3}, {4, 5, 6, 7}});
    net.loadBase(Reg::A, m);
    EXPECT_GT(net.now(), 0u);
    EXPECT_EQ(net.readBase(Reg::A), m);
}

TEST(OtnNetwork, InputOutputPorts)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    std::vector<std::uint64_t> in{4, 3};
    net.setRowRootInputs(in);
    EXPECT_EQ(net.rowRoot(0), 4u);
    EXPECT_EQ(net.rowRoot(1), 3u);
    EXPECT_EQ(net.rowRoot(2), kNull);
}

TEST(OtnPatterns, DiagToRowsAndCols)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    for (std::size_t v = 0; v < 4; ++v)
        net.reg(Reg::D, v, v) = 10 + v;
    diagToRows(net, Reg::D, Reg::B);
    diagToCols(net, Reg::D, Reg::C);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j) {
            EXPECT_EQ(net.reg(Reg::B, i, j), 10 + i);
            EXPECT_EQ(net.reg(Reg::C, i, j), 10 + j);
        }
    }
}

TEST(OtnPatterns, GatherAtIndexDoesIndirection)
{
    OrthogonalTreesNetwork net(8, logCost(8));
    // key(i) = (i + 3) % 8, val(j) = 100 + j; expect out(i) = 100 + key.
    for (std::size_t i = 0; i < 8; ++i)
        for (std::size_t j = 0; j < 8; ++j) {
            net.reg(Reg::X, i, j) = (i + 3) % 8;
            net.reg(Reg::R, i, j) = 100 + j;
        }
    gatherAtIndex(net, Reg::X, Reg::R, Reg::Y, Reg::F);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(net.reg(Reg::Y, i, i), 100 + (i + 3) % 8);
}

TEST(OtnPatterns, GatherAtIndexNullKeyGivesNull)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    net.fillReg(Reg::X, kNull);
    net.fillReg(Reg::R, 7);
    gatherAtIndex(net, Reg::X, Reg::R, Reg::Y, Reg::F);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(net.reg(Reg::Y, i, i), kNull);
}

TEST(OtnNetwork, StatsCountPrimitives)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    net.rowRoot(0) = 1;
    net.rootToLeaf(Axis::Row, 0, Sel::all(), Reg::A);
    net.rootToLeaf(Axis::Row, 0, Sel::all(), Reg::B);
    net.countLeafToRoot(Axis::Row, 0, Reg::F);
    EXPECT_EQ(net.stats().counter("otn.rootToLeaf").value(), 2u);
    EXPECT_EQ(net.stats().counter("otn.countLeafToRoot").value(), 1u);
}

TEST(OtnNetwork, StatCountersCountEveryPardoIteration)
{
    const std::size_t n = 16;
    OrthogonalTreesNetwork net(n, logCost(n));
    net.parallelFor(n, [&](std::size_t i) {
        net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::A);
        net.countLeafToRoot(Axis::Row, i, Reg::A);
    });
    EXPECT_EQ(net.stats().counter("otn.rootToLeaf").value(), n);
    EXPECT_EQ(net.stats().counter("otn.countLeafToRoot").value(), n);
}

} // namespace
