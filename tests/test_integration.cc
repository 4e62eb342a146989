/**
 * @file
 * Integration tests across modules and machines:
 *
 *  - every sorter in the repository (OTN, OTC, mesh, PSN, CCC, tree
 *    machine, OTN-bitonic, OTC-emulated OTN) agrees on the same
 *    inputs;
 *  - every matrix multiplier agrees (OTN pipelined/replicated, OTC,
 *    mesh Cannon, 3D mesh of trees, sequential reference);
 *  - connected components computed four independent ways agree
 *    (union-find, CONNECT on OTN, CONNECT on OTC, mesh closure);
 *  - time/area orderings the paper's comparison depends on hold
 *    between machines on identical workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>

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

/** Spec for building `topo` directly at any n under `cost`. */
topo::MachineSpec
directSpec(const char *topo, std::size_t n, const CostModel &cost)
{
    return {.topo = topo,
            .n = n,
            .model = cost.delayModel(),
            .wordBits = cost.word().bits()};
}

/** The registry's machine for one (net, algo, n) instance. */
std::unique_ptr<topo::Machine>
machine(const char *net, topo::Algo algo, std::size_t n,
        DelayModel model = DelayModel::Logarithmic)
{
    return topo::registry().build(
        topo::resolveSpec(net, algo, n, model, false));
}

class SorterAgreement
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(SorterAgreement, AllMachinesAgree)
{
    auto [n, seed] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + n);
    std::vector<std::uint64_t> v(n);
    for (auto &x : v)
        x = rng.uniform(0, n - 1);
    auto expect = v;
    std::sort(expect.begin(), expect.end());
    auto cost = logCost(n);

    // N = 100 is no registered size, so every sorter here is built
    // explicitly (each rounds its machine up to hold N keys).
    otn::OrthogonalTreesNetwork otn_net(n, cost);
    EXPECT_EQ(otn::sortOtn(otn_net, v).sorted, expect) << "SORT-OTN";
    const unsigned l = vlsi::logCeilAtLeast1(n);
    otc::OtcNetwork otc_net(vlsi::ceilDiv(n, l), l, cost);
    EXPECT_EQ(otc::sortOtc(otc_net, v).sorted, expect) << "SORT-OTC";
    topo::MeshMachine mesh(directSpec("mesh", n, cost));
    EXPECT_EQ(mesh.runSort(v).sorted, expect) << "mesh";
    topo::PsnMachine psn(directSpec("psn", n, cost));
    EXPECT_EQ(psn.runSort(v).sorted, expect) << "PSN";
    topo::CccMachine ccc(directSpec("ccc", n, cost));
    EXPECT_EQ(ccc.runSort(v).sorted, expect) << "CCC";

    topo::TreeMachine tree(directSpec("tree", n, cost));
    EXPECT_EQ(tree.runSort(v).sorted, expect) << "tree machine";

    otc::OtcEmulatedOtn emu(n, cost);
    EXPECT_EQ(otn::sortOtn(emu, v).sorted, expect) << "OTC-emulated OTN";

    // Bitonic needs a square base holding all N elements.
    std::size_t k = 1;
    while (k * k < n)
        k <<= 1;
    otn::OrthogonalTreesNetwork square(k, cost);
    EXPECT_EQ(otn::bitonicSortOtn(square, v).sorted, expect)
        << "BITONIC-OTN";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SorterAgreement,
    ::testing::Combine(::testing::Values(16, 64, 100, 256),
                       ::testing::Values(1, 2)));

class MatMulAgreement : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(MatMulAgreement, AllMachinesAgree)
{
    std::size_t n = GetParam();
    Rng rng(n * 31);
    linalg::IntMatrix a(n, n), b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            a(i, j) = rng.uniform(0, 7);
            b(i, j) = rng.uniform(0, 7);
        }
    auto expect = linalg::matMul(a, b);
    CostModel cost(DelayModel::Logarithmic, WordFormat(32));

    otn::OrthogonalTreesNetwork net(n, cost);
    EXPECT_EQ(otn::matMulPipelined(net, a, b).product, expect);

    EXPECT_EQ(machine("otc", topo::Algo::MatMul, n)->runMatMul(a, b).product,
              expect);

    topo::MeshMachine mesh(directSpec("mesh", n, cost));
    EXPECT_EQ(mesh.runMatMul(a, b).product, expect);

    otn::MeshOfTrees3d mot(n, cost);
    EXPECT_EQ(mot.matMul(a, b).product, expect);
}

INSTANTIATE_TEST_SUITE_P(Sweep, MatMulAgreement,
                         ::testing::Values(2, 4, 8, 16));

class CcAgreement
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>>
{
};

TEST_P(CcAgreement, FiveWaysAgree)
{
    auto [n, p] = GetParam();
    Rng rng(n * 17 + static_cast<std::uint64_t>(p * 100));
    auto g = graph::randomGnp(n, p, rng);
    auto cost = logCost(n);

    auto expect = graph::connectedComponents(g);

    otn::OrthogonalTreesNetwork net(n, cost);
    EXPECT_EQ(otn::connectedComponentsOtn(net, g).labels, expect)
        << "CONNECT on OTN";

    EXPECT_EQ(machine("otc", topo::Algo::ConnectedComponents, n)
                  ->runConnectedComponents(g)
                  .labels,
              expect)
        << "CONNECT on OTC";

    topo::MeshMachine mesh(directSpec("mesh", n, cost));
    EXPECT_EQ(mesh.runConnectedComponents(g).labels, expect)
        << "mesh closure";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CcAgreement,
    ::testing::Combine(::testing::Values(8, 16, 32),
                       ::testing::Values(0.05, 0.2, 0.6)));

TEST(CrossMachine, SortTimeOrderingUnderThompson)
{
    // Table I's time column on one workload: OTN/OTC < PSN/CCC < mesh
    // (at a size where sqrt(N) has overtaken the polylogs).
    std::size_t n = 1024;
    Rng rng(5);
    auto v = rng.permutation(n);

    auto t_otn = machine("otn", topo::Algo::Sort, n)->runSort(v).time;
    auto t_psn = machine("psn", topo::Algo::Sort, n)->runSort(v).time;
    auto t_mesh = machine("mesh", topo::Algo::Sort, n)->runSort(v).time;
    EXPECT_LT(t_otn, t_psn);
    EXPECT_LT(t_psn, t_mesh);
}

TEST(CrossMachine, AreaOrderingOtnVsOtc)
{
    // Same problem, both tree machines: the OTC chip is smaller and
    // the ratio grows ~log^2 N.  Sizes are chosen so N / log N is
    // itself a power of two (16/4, 256/8, 65536/16) — otherwise the
    // simulator rounds the cycle count up and the constant wobbles.
    double prev_ratio = 0;
    for (std::size_t n : {16, 256, 65536}) {
        unsigned l = vlsi::logCeilAtLeast1(n);
        auto cost = logCost(n);
        layout::OtnLayout otn_l(n, cost.word().bits());
        layout::OtcLayout otc_l(n / l, l, cost.word().bits());
        double ratio = static_cast<double>(otn_l.metrics().area()) /
                       static_cast<double>(otc_l.metrics().area());
        EXPECT_GT(ratio, 1.0) << "n = " << n;
        EXPECT_GT(ratio, prev_ratio) << "ratio must grow with N";
        prev_ratio = ratio;
    }
}

TEST(CrossMachine, MstAgreesBetweenOtnOtcAndKruskal)
{
    Rng rng(6);
    std::size_t n = 24;
    auto g = graph::randomWeightedConnected(n, 3 * n, rng);
    CostModel cost(DelayModel::Logarithmic, otn::mstWordFormat(n, n * n));

    auto expect = graph::kruskalMsf(g);
    otn::OrthogonalTreesNetwork net(n, cost);
    EXPECT_EQ(otn::mstOtn(net, g).edges, expect);
    // N = 24 is no registered size: build the emulated OTC directly.
    otc::OtcEmulatedOtn emu(n, cost);
    EXPECT_EQ(otn::mstOtn(emu, g).edges, expect);
}

TEST(CrossMachine, PipeliningNeverChangesResults)
{
    // The pipelined stream must produce exactly the per-problem
    // results of isolated runs.
    std::size_t n = 64;
    Rng rng(7);
    std::vector<std::vector<std::uint64_t>> problems;
    for (int p = 0; p < 5; ++p)
        problems.push_back(rng.permutation(n));
    auto cost = logCost(n);

    otn::OrthogonalTreesNetwork piped(n, cost);
    auto r = otn::sortPipelineOtn(piped, problems);
    for (std::size_t p = 0; p < problems.size(); ++p) {
        auto isolated =
            machine("otn", topo::Algo::Sort, n)->runSort(problems[p]).sorted;
        EXPECT_EQ(r.sorted[p], isolated) << "problem " << p;
    }
}

TEST(CrossMachine, DelayModelNeverChangesResults)
{
    // Cost model changes timing only — results must be identical under
    // all three delay rules.
    std::size_t n = 64;
    Rng rng(8);
    std::vector<std::uint64_t> v(n);
    for (auto &x : v)
        x = rng.uniform(0, n - 1);

    std::vector<std::uint64_t> expect;
    for (auto model : {DelayModel::Logarithmic, DelayModel::Constant,
                       DelayModel::Linear}) {
        auto sorted =
            machine("otn", topo::Algo::Sort, n, model)->runSort(v).sorted;
        if (expect.empty())
            expect = sorted;
        EXPECT_EQ(sorted, expect) << vlsi::toString(model);
    }
}

TEST(CrossMachine, LinearDelayIsSlowestLogMiddleConstantFastest)
{
    std::size_t n = 256;
    Rng rng(9);
    auto v = rng.permutation(n);
    auto time_under = [&](DelayModel m) {
        return machine("otn", topo::Algo::Sort, n, m)->runSort(v).time;
    };
    auto t_const = time_under(DelayModel::Constant);
    auto t_log = time_under(DelayModel::Logarithmic);
    auto t_lin = time_under(DelayModel::Linear);
    EXPECT_LT(t_const, t_log);
    EXPECT_LT(t_log, t_lin);
}

} // namespace
