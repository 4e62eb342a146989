/**
 * @file
 * Tests for the comparison networks: mesh (bitonic sort, Cannon
 * matmul, components via closure), PSN (Stone's bitonic sort) and CCC
 * (bitonic via DESCEND), including the delay-model sensitivity the
 * paper builds Tables I and IV around.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/generators.hh"
#include "graph/reference_algorithms.hh"
#include "linalg/reference.hh"
#include "sim/rng.hh"
#include "topo/ccc.hh"
#include "topo/mesh.hh"
#include "topo/psn.hh"
#include "topo/registry.hh"
#include "trace/tracer.hh"
#include "vlsi/bitmath.hh"

namespace {

using ot::sim::Rng;
using ot::topo::CccMachine;
using ot::topo::MachineSpec;
using ot::topo::MeshMachine;
using ot::topo::PsnMachine;
using ot::vlsi::DelayModel;
using ot::vlsi::WordFormat;

/** Spec for building `topo` directly at any n (the registry builds
 *  powers of two only), Thompson's model with `bits`-bit words. */
MachineSpec
logSpec(const char *topo, std::size_t n, unsigned bits)
{
    return {.topo = topo, .n = n, .wordBits = bits};
}

/** logSpec with the word width of an m-element problem. */
MachineSpec
logSpecFor(const char *topo, std::size_t n, std::size_t m)
{
    return logSpec(topo, n, WordFormat::forProblemSize(m).bits());
}

std::vector<std::uint64_t>
sortedCopy(std::vector<std::uint64_t> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

/** Sort v on the registry's `net` machine for N = v.size(). */
ot::topo::SortRun
registrySort(const char *net, const std::vector<std::uint64_t> &v,
             DelayModel model = DelayModel::Logarithmic)
{
    auto spec = ot::topo::resolveSpec(net, ot::topo::Algo::Sort, v.size(),
                                      model, false);
    return ot::topo::registry().build(spec)->runSort(v);
}

// ---------------------------------------------------------------- mesh

TEST(MeshSort, SortsRandomInputs)
{
    Rng rng(1);
    for (std::size_t n : {4, 16, 64, 256}) {
        std::vector<std::uint64_t> v(n);
        for (auto &x : v)
            x = rng.uniform(0, n - 1);
        EXPECT_EQ(registrySort("mesh", v).sorted, sortedCopy(v))
            << "n = " << n;
    }
}

TEST(MeshSort, PartialLoadAndDuplicates)
{
    std::vector<std::uint64_t> v{7, 7, 1, 3, 3};
    MeshMachine mesh(logSpecFor("mesh", v.size(), 8));
    EXPECT_EQ(mesh.runSort(v).sorted, sortedCopy(v));
}

TEST(MeshSort, TimeIsThetaSqrtN)
{
    // Doubling N should scale time by ~sqrt(2) for large N.
    Rng rng(2);
    std::vector<double> ns, ts;
    for (std::size_t n : {256, 1024, 4096, 16384}) {
        std::vector<std::uint64_t> v(n);
        for (auto &x : v)
            x = rng.uniform(0, n - 1);
        MeshMachine mesh(logSpecFor("mesh", n, n));
        ts.push_back(static_cast<double>(mesh.runSort(v).time));
        ns.push_back(static_cast<double>(n));
    }
    for (std::size_t i = 1; i < ts.size(); ++i) {
        double ratio = ts[i] / ts[i - 1]; // N quadruples each step
        EXPECT_GT(ratio, 1.6);
        EXPECT_LT(ratio, 2.8);
    }
}

TEST(MeshSort, UnaffectedByDelayModel)
{
    // Section VII-D: short wires make the mesh model-insensitive.
    Rng rng(3);
    std::size_t n = 1024;
    std::vector<std::uint64_t> v(n);
    for (auto &x : v)
        x = rng.uniform(0, n - 1);
    auto t_log = registrySort("mesh", v).time;
    auto t_const = registrySort("mesh", v, DelayModel::Constant).time;
    double ratio = static_cast<double>(t_log) /
                   static_cast<double>(t_const);
    EXPECT_LT(ratio, 4.0);
    EXPECT_GE(ratio, 1.0);
}

TEST(MeshMatMul, MatchesReference)
{
    Rng rng(4);
    // Odd and size-1 sides wrap Cannon's rotated operands at n - s.
    for (std::size_t n : {1, 2, 3, 4, 5, 7, 8, 16}) {
        ot::linalg::IntMatrix a(n, n), b(n, n);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j) {
                a(i, j) = rng.uniform(0, 9);
                b(i, j) = rng.uniform(0, 9);
            }
        MeshMachine mesh(logSpec("mesh", n, 32));
        auto r = mesh.runMatMul(a, b);
        EXPECT_EQ(r.product, ot::linalg::matMul(a, b)) << "n = " << n;
        // Skew route, then n steps of multiply-accumulate plus one
        // rotation hop (a route is hops * hop + 1).
        const auto hop = mesh.hopCost();
        EXPECT_EQ(r.time,
                  (n - 1) * hop + 1 +
                      n * (mesh.cost().bitSerialMultiply() + hop + 1))
            << "n = " << n;
    }
}

TEST(MeshMatMul, TimeIsThetaN)
{
    std::vector<double> ts;
    Rng rng(5);
    for (std::size_t n : {8, 16, 32, 64}) {
        ot::linalg::IntMatrix a(n, n, 1), b(n, n, 1);
        MeshMachine mesh(logSpec("mesh", n, 32));
        ts.push_back(static_cast<double>(mesh.runMatMul(a, b).time));
    }
    for (std::size_t i = 1; i < ts.size(); ++i) {
        EXPECT_GT(ts[i] / ts[i - 1], 1.7);
        EXPECT_LT(ts[i] / ts[i - 1], 2.5);
    }
}

TEST(MeshBoolMatMul, MatchesReference)
{
    Rng rng(6);
    // Packed rows: sides inside one 64-bit word, at and across its
    // boundary, and past two words.
    for (std::size_t n : {1, 3, 63, 64, 65, 127, 130}) {
        ot::linalg::BoolMatrix a(n, n, 0), b(n, n, 0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j) {
                a(i, j) = rng.bernoulli(0.3);
                b(i, j) = rng.bernoulli(0.3);
            }
        MeshMachine mesh(logSpecFor("mesh", n, n));
        auto r = mesh.runBoolMatMul(a, b);
        auto expect = ot::linalg::boolMatMul(a, b);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                EXPECT_EQ(r.product(i, j) != 0, expect(i, j) != 0)
                    << "n = " << n << " at " << i << "," << j;
    }
}

TEST(MeshCc, MatchesUnionFind)
{
    Rng rng(7);
    for (std::size_t n : {1, 8, 63, 64, 65, 128}) {
        auto g = ot::graph::randomGnp(n, 2.0 / static_cast<double>(n),
                                      rng);
        MeshMachine mesh(logSpecFor("mesh", n, n));
        auto r = mesh.runConnectedComponents(g);
        EXPECT_EQ(r.labels, ot::graph::connectedComponents(g))
            << "n = " << n;
    }
}

/**
 * The mesh's Boolean Cannon written out per cell on 0/1 integer
 * words, the formulation the packed host path must reproduce: after
 * the skew, step s has PE(i, j) OR in a(i, k) & b(k, j) for
 * k = (i + j + s) mod n, and the clock takes the skew route, then per
 * step one multiply-accumulate and one rotation hop.
 */
ot::linalg::IntMatrix
perCellBoolCannon(const ot::linalg::IntMatrix &a,
                  const ot::linalg::IntMatrix &b, const MeshMachine &mesh,
                  ot::sim::TimeAccountant &acct)
{
    const std::size_t n = a.rows();
    auto route = [&](std::uint64_t hops) {
        acct.advance(hops * mesh.hopCost() + 1);
    };
    ot::linalg::IntMatrix c(n, n, 0);
    route(n - 1);
    for (std::size_t step = 0; step < n; ++step) {
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j) {
                const std::size_t k = (i + j + step) % n;
                c(i, j) |= a(i, k) & b(k, j);
            }
        acct.advance(mesh.cost().bitSerialMultiply());
        route(1);
    }
    return c;
}

/** The mesh's clock and trace stream equal the reference's. */
void
expectSameClock(const MeshMachine &mesh, const ot::trace::Tracer &trace,
                const ot::sim::TimeAccountant &acct,
                const ot::trace::Tracer &ref_trace)
{
    EXPECT_EQ(mesh.now(), acct.now());
    EXPECT_EQ(mesh.steps(), acct.steps());
    ASSERT_EQ(trace.events().size(), ref_trace.events().size());
    for (std::size_t e = 0; e < trace.events().size(); ++e)
        ASSERT_TRUE(ot::trace::eventsEqual(trace.events()[e],
                                           ref_trace.events()[e]))
            << "event " << e;
}

TEST(MeshCannon, PackedBooleanRunsMatchPerCellIntegerCannon)
{
    Rng rng(10);
    for (std::size_t n : {1, 5, 64, 65, 130})
        for (bool traced : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "n = " << n << (traced ? " traced" : ""));
            ot::trace::Tracer trace, ref_trace;
            trace.setEnabled(true);
            ref_trace.setEnabled(true);

            // Boolean matrix product.
            {
                ot::linalg::BoolMatrix a(n, n, 0), b(n, n, 0);
                ot::linalg::IntMatrix ia(n, n, 0), ib(n, n, 0);
                for (std::size_t i = 0; i < n; ++i)
                    for (std::size_t j = 0; j < n; ++j) {
                        ia(i, j) = a(i, j) = rng.bernoulli(0.05);
                        ib(i, j) = b(i, j) = rng.bernoulli(0.05);
                    }
                MeshMachine mesh(logSpecFor("mesh", n, n));
                ot::sim::TimeAccountant acct;
                if (traced) {
                    mesh.setTracer(&trace);
                    acct.setTracer(&ref_trace);
                }
                auto r = mesh.runBoolMatMul(a, b);
                ot::linalg::IntMatrix want;
                {
                    ot::sim::ScopedPhase phase(acct, "mesh-bool-matmul");
                    want = perCellBoolCannon(ia, ib, mesh, acct);
                }
                EXPECT_EQ(r.product, want);
                EXPECT_EQ(r.time, acct.now());
                expectSameClock(mesh, trace, acct, ref_trace);
            }

            // Components by closure, then the min-label pass.
            {
                trace.clear();
                ref_trace.clear();
                auto g = ot::graph::randomGnp(
                    n, 1.5 / static_cast<double>(n), rng);
                MeshMachine mesh(logSpecFor("mesh", n, n));
                ot::sim::TimeAccountant acct;
                if (traced) {
                    mesh.setTracer(&trace);
                    acct.setTracer(&ref_trace);
                }
                auto r = mesh.runConnectedComponents(g);
                std::vector<std::size_t> labels(n);
                {
                    ot::sim::ScopedPhase phase(acct, "mesh-cc");
                    ot::linalg::IntMatrix reach(n, n, 0);
                    for (std::size_t i = 0; i < n; ++i)
                        for (std::size_t j = 0; j < n; ++j)
                            reach(i, j) = i == j || g.hasEdge(i, j);
                    for (unsigned s = 0;
                         s < ot::vlsi::logCeilAtLeast1(n); ++s)
                        reach = perCellBoolCannon(reach, reach, mesh, acct);
                    for (std::size_t i = 0; i < n; ++i) {
                        labels[i] = i;
                        for (std::size_t j = 0; j < n; ++j)
                            if (reach(i, j))
                                labels[i] = std::min(labels[i], j);
                    }
                    acct.advance(n * mesh.hopCost() + 1);
                }
                EXPECT_EQ(r.labels, ot::graph::canonicalizeLabels(labels));
                EXPECT_EQ(r.time, acct.now());
                expectSameClock(mesh, trace, acct, ref_trace);
            }
        }
}

// ----------------------------------------------------------------- PSN

TEST(PsnSort, SortsRandomInputs)
{
    Rng rng(8);
    for (std::size_t n : {4, 16, 64, 512}) {
        std::vector<std::uint64_t> v(n);
        for (auto &x : v)
            x = rng.uniform(0, n - 1);
        EXPECT_EQ(registrySort("psn", v).sorted, sortedCopy(v))
            << "n = " << n;
    }
}

TEST(PsnSort, StepCountIsThetaLog2N)
{
    Rng rng(9);
    for (std::size_t n : {64, 256, 1024}) {
        auto v = rng.permutation(n);
        PsnMachine psn(logSpecFor("psn", n, n));
        psn.runSort(v);
        double m = std::log2(static_cast<double>(n));
        EXPECT_GT(static_cast<double>(psn.steps()), 0.4 * m * m);
        EXPECT_LT(static_cast<double>(psn.steps()), 2.5 * m * m);
    }
}

TEST(PsnSort, ConstantDelaySavesALogFactor)
{
    // Table I vs Table IV: log^3 N -> log^2 N.
    Rng rng(10);
    std::size_t n = 4096;
    auto v = rng.permutation(n);
    auto t_log = registrySort("psn", v).time;
    auto t_const = registrySort("psn", v, DelayModel::Constant).time;
    double ratio = static_cast<double>(t_log) /
                   static_cast<double>(t_const);
    // log2(4096) = 12; the wire delay factor is log(N/logN) ~ 8.4.
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 12.0);
}

TEST(PsnSort, DuplicatesAndAdversarialOrders)
{
    std::vector<std::uint64_t> rev{7, 6, 5, 4, 3, 2, 1, 0};
    EXPECT_EQ(registrySort("psn", rev).sorted, sortedCopy(rev));
    std::vector<std::uint64_t> dup(32, 5);
    dup[7] = 1;
    dup[23] = 9;
    EXPECT_EQ(registrySort("psn", dup).sorted, sortedCopy(dup));
}

// ----------------------------------------------------------------- CCC

TEST(CccSort, SortsRandomInputs)
{
    Rng rng(11);
    for (std::size_t n : {4, 16, 64, 512}) {
        std::vector<std::uint64_t> v(n);
        for (auto &x : v)
            x = rng.uniform(0, n - 1);
        EXPECT_EQ(registrySort("ccc", v).sorted, sortedCopy(v))
            << "n = " << n;
    }
}

TEST(CccSort, StepCountIsThetaLog2N)
{
    Rng rng(12);
    for (std::size_t n : {64, 256, 1024}) {
        auto v = rng.permutation(n);
        CccMachine ccc(logSpecFor("ccc", n, n));
        ccc.runSort(v);
        double m = std::log2(static_cast<double>(n));
        EXPECT_GT(static_cast<double>(ccc.steps()), 0.4 * m * m);
        EXPECT_LT(static_cast<double>(ccc.steps()), 3.0 * m * m);
    }
}

TEST(CccSort, ConstantDelaySavesALogFactor)
{
    Rng rng(13);
    std::size_t n = 4096;
    auto v = rng.permutation(n);
    auto t_log = registrySort("ccc", v).time;
    auto t_const = registrySort("ccc", v, DelayModel::Constant).time;
    double ratio = static_cast<double>(t_log) /
                   static_cast<double>(t_const);
    EXPECT_GT(ratio, 3.0);
    EXPECT_LT(ratio, 12.0);
}

TEST(Baselines, FastNetworksBeatMeshInTime)
{
    // The Section I dichotomy: PSN/CCC are fast but big; the mesh is
    // small but slow.
    Rng rng(14);
    std::size_t n = 4096;
    auto v = rng.permutation(n);
    auto t_mesh = registrySort("mesh", v).time;
    auto t_psn = registrySort("psn", v).time;
    auto t_ccc = registrySort("ccc", v).time;
    EXPECT_LT(t_psn, t_mesh);
    EXPECT_LT(t_ccc, t_mesh);

    // The area side of the dichotomy (mesh area N log^2 N vs
    // PSN/CCC N^2 / log^2 N) only separates once N > log^4 N —
    // compare layouts at a properly asymptotic size.
    std::size_t big = std::size_t{1} << 22;
    MeshMachine mesh(logSpecFor("mesh", big, big));
    PsnMachine psn(logSpecFor("psn", big, big));
    CccMachine ccc(logSpecFor("ccc", big, big));
    EXPECT_LT(mesh.area(), psn.area());
    EXPECT_LT(mesh.area(), ccc.area());
}

} // namespace
