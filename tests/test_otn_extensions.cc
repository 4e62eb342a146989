/**
 * @file
 * Tests for the extension modules: the PREFIX tree primitive, integer
 * multiplication (Capello & Steiglitz, paper §I), the 3D mesh of
 * trees (paper §VII-B), and the single-tree machine (paper §II-A) the
 * OTN generalizes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "linalg/reference.hh"
#include "analysis/fitting.hh"
#include "otn/integer_multiply.hh"
#include "otn/mesh_of_trees_3d.hh"
#include "otn/network.hh"
#include "otn/registers.hh"
#include "sim/rng.hh"
#include "topo/registry.hh"
#include "topo/tree.hh"

namespace {

using namespace ot;
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

/** The single-tree machine's spec: n leaves, n-element words. */
topo::MachineSpec
treeSpec(std::size_t n)
{
    return {.topo = "tree", .n = n, .wordBits = logCost(n).word().bits()};
}

// ---------------------------------------------------------- prefix op

TEST(PrefixSum, InclusiveScanAlongRow)
{
    OrthogonalTreesNetwork net(8, logCost(8));
    for (std::size_t j = 0; j < 8; ++j)
        net.reg(Reg::A, 0, j) = j + 1;
    net.prefixSumLeafToLeaf(Axis::Row, 0, Sel::all(), Reg::A, Reg::B);
    std::uint64_t expect = 0;
    for (std::size_t j = 0; j < 8; ++j) {
        expect += j + 1;
        EXPECT_EQ(net.reg(Reg::B, 0, j), expect);
    }
}

TEST(PrefixSum, SelectorMasksContributions)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    for (std::size_t i = 0; i < 4; ++i)
        net.reg(Reg::A, i, 2) = 10;
    net.prefixSumLeafToLeaf(Axis::Col, 2, Sel::evenAlong(Axis::Col),
                            Reg::A, Reg::B);
    EXPECT_EQ(net.reg(Reg::B, 0, 2), 10u);
    EXPECT_EQ(net.reg(Reg::B, 1, 2), 10u); // odd row contributes 0
    EXPECT_EQ(net.reg(Reg::B, 2, 2), 20u);
    EXPECT_EQ(net.reg(Reg::B, 3, 2), 20u);
}

TEST(PrefixSum, CostsTwoReduceTraversals)
{
    OrthogonalTreesNetwork net(16, logCost(16));
    net.resetTime();
    auto dt = net.prefixSumLeafToLeaf(Axis::Row, 3, Sel::all(), Reg::A,
                                      Reg::B);
    EXPECT_EQ(dt, 2 * net.treeReduceCost());
    EXPECT_EQ(net.now(), dt);
}

// -------------------------------------------- integer multiplication

TEST(IntegerMultiply, SmallProducts)
{
    EXPECT_EQ(integerMultiplyOtn(3, 5, 4).product, 15u);
    EXPECT_EQ(integerMultiplyOtn(0, 9, 4).product, 0u);
    EXPECT_EQ(integerMultiplyOtn(15, 15, 4).product, 225u);
    EXPECT_EQ(integerMultiplyOtn(1, 1, 4).product, 1u);
}

class IntegerMultiplyRandom : public ::testing::TestWithParam<int>
{
};

TEST_P(IntegerMultiplyRandom, MatchesHostMultiply)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    for (unsigned bits : {4, 8, 16, 24}) {
        std::uint64_t limit = (std::uint64_t{1} << bits) - 1;
        std::uint64_t a = rng.uniform(0, limit);
        std::uint64_t b = rng.uniform(0, limit);
        auto r = integerMultiplyOtn(a, b, bits);
        EXPECT_EQ(r.product, a * b) << a << " * " << b << " @" << bits;
        EXPECT_GT(r.time, 0u);
        EXPECT_GE(r.carryPasses, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegerMultiplyRandom,
                         ::testing::Range(1, 8));

TEST(IntegerMultiply, MaxWidthOperands)
{
    std::uint64_t a = (std::uint64_t{1} << 31) - 1;
    std::uint64_t b = (std::uint64_t{1} << 31) - 12345;
    EXPECT_EQ(integerMultiplyOtn(a, b, 31).product, a * b);
}

TEST(IntegerMultiply, TimeIsPolylogInWidth)
{
    Rng rng(3);
    std::vector<double> widths, times;
    for (unsigned bits : {8, 16, 31}) {
        std::uint64_t limit = (std::uint64_t{1} << bits) - 1;
        auto r = integerMultiplyOtn(rng.uniform(1, limit),
                                    rng.uniform(1, limit), bits);
        widths.push_back(bits);
        times.push_back(static_cast<double>(r.time));
    }
    // Polylog growth: quadrupling the width should well less than
    // quadruple the time.
    EXPECT_LT(times.back() / times.front(), 3.0);
}

// ------------------------------------------------- 3D mesh of trees

TEST(MeshOfTrees3d, MatMulMatchesReference)
{
    Rng rng(14);
    for (std::size_t n : {2, 4, 8, 16}) {
        linalg::IntMatrix a(n, n), b(n, n);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j) {
                a(i, j) = rng.uniform(0, 9);
                b(i, j) = rng.uniform(0, 9);
            }
        MeshOfTrees3d mot(n, CostModel(DelayModel::Logarithmic,
                                       WordFormat(24)));
        EXPECT_EQ(mot.matMul(a, b).product, linalg::matMul(a, b))
            << "n = " << n;
    }
}

TEST(MeshOfTrees3d, BoolMatMulMatchesReference)
{
    Rng rng(15);
    std::size_t n = 8;
    linalg::BoolMatrix a(n, n, 0), b(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            a(i, j) = rng.bernoulli(0.3);
            b(i, j) = rng.bernoulli(0.3);
        }
    MeshOfTrees3d mot(n, logCost(n));
    auto r = mot.boolMatMul(a, b);
    auto expect = linalg::boolMatMul(a, b);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_EQ(r.product(i, j) != 0, expect(i, j) != 0);
}

TEST(MeshOfTrees3d, TimeIsPolylogAreaIsN4)
{
    // Section VII-B: time O(log N) (constant model) / polylog
    // (Thompson); area Theta(N^4).
    std::vector<double> ns, times, areas;
    for (std::size_t n : {8, 16, 32, 64}) {
        MeshOfTrees3d mot(n, CostModel(DelayModel::Logarithmic,
                                       WordFormat(32)));
        linalg::IntMatrix a(n, n, 1), b(n, n, 1);
        auto r = mot.matMul(a, b);
        ns.push_back(static_cast<double>(n));
        times.push_back(static_cast<double>(r.time));
        areas.push_back(static_cast<double>(mot.chipArea()));
    }
    auto tfit = ot::analysis::fitPowerLaw(ns, times);
    EXPECT_LT(tfit.exponent, 0.4) << "time must be polylog in N";
    auto afit = ot::analysis::fitPowerLaw(ns, areas);
    EXPECT_NEAR(afit.exponent, 4.0, 0.3);
}

TEST(MeshOfTrees3d, FasterThanPipelinedOtnForLargeN)
{
    std::size_t n = 32;
    CostModel cm(DelayModel::Logarithmic, WordFormat(32));
    linalg::IntMatrix a(n, n, 2), b(n, n, 3);
    MeshOfTrees3d mot(n, cm);
    auto t3d = mot.matMul(a, b).time;
    OrthogonalTreesNetwork net(n, cm);
    auto t2d = matMulPipelined(net, a, b).time;
    EXPECT_LT(t3d, t2d);
}

// ------------------------------------------------------ tree machine

TEST(TreeMachine, BroadcastAndReduce)
{
    topo::TreeMachine tree(treeSpec(8));
    tree.broadcast(7);
    for (std::size_t k = 0; k < 8; ++k)
        EXPECT_EQ(tree.leaf(k), 7u);
    tree.leaf(3) = 2;
    tree.leaf(5) = 11;
    EXPECT_EQ(tree.minReduce(), 2u);
    EXPECT_EQ(tree.sumReduce(), 6u * 7 + 2 + 11);

    // reset() empties the leaves as well as the clock.
    tree.reset();
    EXPECT_EQ(tree.now(), 0u);
    for (std::size_t k = 0; k < 8; ++k)
        EXPECT_EQ(tree.leaf(k), otn::kNull);
    EXPECT_EQ(tree.sumReduce(), 0u);
}

TEST(TreeMachine, ExtractMinSortIsCorrect)
{
    Rng rng(16);
    for (std::size_t n : {4, 16, 64}) {
        std::vector<std::uint64_t> v(n);
        for (auto &x : v)
            x = rng.uniform(0, n - 1);
        topo::TreeMachine tree(treeSpec(n));
        auto sorted = tree.runSort(v).sorted;
        std::sort(v.begin(), v.end());
        EXPECT_EQ(sorted, v) << "n = " << n;
    }
}

TEST(TreeMachine, RootBottleneckVsOtn)
{
    // Section II-A's motivation: one tree serializes at the root —
    // sorting is Theta(N) traversals vs the OTN's O(log^2 N) total.
    Rng rng(17);
    std::size_t n = 256;
    auto v = rng.permutation(n);
    topo::TreeMachine tree(treeSpec(n));
    auto t_tree = tree.runSort(v).time;
    auto otn = topo::registry().build(topo::resolveSpec(
        "otn", topo::Algo::Sort, n, DelayModel::Logarithmic, false));
    auto t_otn = otn->runSort(v).time;
    EXPECT_GT(t_tree, 10 * t_otn);
    // But the tree machine is far smaller.
    EXPECT_LT(tree.area(), otn->area() / 8);
}

TEST(TreeMachine, SemigroupOpsCostOneTraversalClass)
{
    topo::TreeMachine tree(treeSpec(1024));
    tree.minReduce();
    const vlsi::ModelTime dt = tree.now();
    double logn = std::log2(1024.0);
    EXPECT_LT(static_cast<double>(dt), 8 * logn * logn);
}


// ------------------------------------------------ permutation routing

TEST(PermuteLeafToLeaf, RoutesArbitraryPermutation)
{
    OrthogonalTreesNetwork net(8, logCost(8));
    for (std::size_t j = 0; j < 8; ++j)
        net.reg(Reg::A, 0, j) = 100 + j;
    std::vector<std::size_t> perm{3, 0, 7, 1, 6, 2, 5, 4};
    net.permuteLeafToLeaf(Axis::Row, 0, perm, Reg::A, Reg::B);
    for (std::size_t j = 0; j < 8; ++j)
        EXPECT_EQ(net.reg(Reg::B, 0, perm[j]), 100 + j);
}

TEST(PermuteLeafToLeaf, IdentityCostsOneTraversal)
{
    OrthogonalTreesNetwork net(16, logCost(16));
    std::vector<std::size_t> id(16);
    for (std::size_t k = 0; k < 16; ++k)
        id[k] = k;
    EXPECT_EQ(net.permutationCost(id), net.treeTraversalCost());
}

TEST(PermuteLeafToLeaf, ShiftIsCheapReversalIsExpensive)
{
    OrthogonalTreesNetwork net(64, logCost(64));
    std::vector<std::size_t> shift(64), reversal(64);
    for (std::size_t k = 0; k < 64; ++k) {
        shift[k] = (k + 1) % 64;
        reversal[k] = 63 - k;
    }
    auto c_shift = net.permutationCost(shift);
    auto c_rev = net.permutationCost(reversal);
    // Shift: one word per node, no queueing beyond the wrap word.
    EXPECT_LT(c_shift, net.treeTraversalCost() +
                           2 * net.cost().wordSeparation() + 64);
    // Reversal: all 64 words cross the root, serialized.
    EXPECT_GT(c_rev, 63 * net.cost().wordSeparation());
    EXPECT_GT(c_rev, 4 * c_shift);
}

TEST(PermuteLeafToLeaf, BitReversalCongestionIsHalfTheLeaves)
{
    OrthogonalTreesNetwork net(64, logCost(64));
    std::vector<std::size_t> bitrev(64);
    for (std::size_t k = 0; k < 64; ++k)
        bitrev[k] = vlsi::reverseBits(k, 6);
    auto c = net.permutationCost(bitrev);
    // K/2 words have MSB != LSB and cross the root.
    auto expect_drain = (64 / 2 - 1) * net.cost().wordSeparation();
    EXPECT_GE(c, expect_drain);
    EXPECT_LE(c, expect_drain + 2 * net.treeTraversalCost());
}

TEST(PermuteLeafToLeaf, WorksOnColumns)
{
    OrthogonalTreesNetwork net(4, logCost(4));
    for (std::size_t i = 0; i < 4; ++i)
        net.reg(Reg::A, i, 2) = i * 11;
    std::vector<std::size_t> rev{3, 2, 1, 0};
    net.permuteLeafToLeaf(Axis::Col, 2, rev, Reg::A, Reg::A);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(net.reg(Reg::A, i, 2), (3 - i) * 11);
}

} // namespace
