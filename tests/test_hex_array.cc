/**
 * @file
 * Tests for the hexagonal systolic array (Kung & Leiserson [15], the
 * paper's other low-area baseline).
 */

#include <gtest/gtest.h>

#include "analysis/fitting.hh"
#include "linalg/reference.hh"
#include "sim/rng.hh"
#include "topo/hex.hh"
#include "topo/mesh.hh"

namespace {

using namespace ot;
using sim::Rng;
using topo::HexMachine;
using topo::MachineSpec;
using vlsi::DelayModel;

/** Spec for building `topo` directly at n with `bits`-bit words. */
MachineSpec
spec(const char *topo, std::size_t n, unsigned bits,
     DelayModel model = DelayModel::Logarithmic)
{
    return {.topo = topo, .n = n, .model = model, .wordBits = bits};
}

linalg::IntMatrix
randomMatrix(std::size_t n, std::uint64_t limit, Rng &rng)
{
    linalg::IntMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            m(i, j) = rng.uniform(0, limit - 1);
    return m;
}

TEST(HexArray, MatMulMatchesReference)
{
    Rng rng(1);
    for (std::size_t n : {2, 4, 8, 16, 32}) {
        auto a = randomMatrix(n, 8, rng);
        auto b = randomMatrix(n, 8, rng);
        HexMachine hex(spec("hex", n, 32));
        EXPECT_EQ(hex.runMatMul(a, b).product, linalg::matMul(a, b))
            << "n=" << n;
    }
}

TEST(HexArray, BoolMatMulMatchesReference)
{
    Rng rng(2);
    std::size_t n = 8;
    linalg::BoolMatrix a(n, n, 0), b(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            a(i, j) = rng.bernoulli(0.4);
            b(i, j) = rng.bernoulli(0.4);
        }
    HexMachine hex(spec("hex", n, 16));
    auto product = hex.runBoolMatMul(a, b).product;
    auto expect = linalg::boolMatMul(a, b);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_EQ(product(i, j), expect(i, j)) << i << "," << j;
}

TEST(HexArray, BeatsAreThetaN)
{
    Rng rng(3);
    for (std::size_t n : {8, 16, 32}) {
        auto a = randomMatrix(n, 4, rng);
        auto b = randomMatrix(n, 4, rng);
        HexMachine hex(spec("hex", n, 24));
        hex.runMatMul(a, b);
        // One charge per beat, then the drain.
        EXPECT_EQ(hex.steps() - 1, 3 * (n - 1) + 1);
    }
}

TEST(HexArray, TimeIsLinearAreaQuadratic)
{
    std::vector<double> ns, times, areas;
    Rng rng(4);
    for (std::size_t n : {8, 16, 32, 64}) {
        auto a = randomMatrix(n, 4, rng);
        auto b = randomMatrix(n, 4, rng);
        HexMachine hex(spec("hex", n, 24));
        ns.push_back(static_cast<double>(n));
        times.push_back(static_cast<double>(hex.runMatMul(a, b).time));
        areas.push_back(static_cast<double>(hex.area()));
    }
    EXPECT_NEAR(analysis::fitPowerLaw(ns, times).exponent, 1.0, 0.15);
    EXPECT_NEAR(analysis::fitPowerLaw(ns, areas).exponent, 2.0, 0.15);
}

TEST(HexArray, InsensitiveToDelayModel)
{
    // Nearest-neighbour wires only (Section I's point about the
    // mesh/hex class).
    Rng rng(5);
    std::size_t n = 16;
    auto a = randomMatrix(n, 4, rng);
    auto b = randomMatrix(n, 4, rng);
    HexMachine hl(spec("hex", n, 24));
    HexMachine hc(spec("hex", n, 24, DelayModel::Constant));
    auto tl = hl.runMatMul(a, b).time;
    auto tc = hc.runMatMul(a, b).time;
    EXPECT_LT(static_cast<double>(tl) / static_cast<double>(tc), 4.0);
}

TEST(HexArray, AgreesWithCannonMesh)
{
    Rng rng(6);
    std::size_t n = 16;
    auto a = randomMatrix(n, 6, rng);
    auto b = randomMatrix(n, 6, rng);
    HexMachine hex(spec("hex", n, 32));
    topo::MeshMachine mesh(spec("mesh", n, 32));
    EXPECT_EQ(hex.runMatMul(a, b).product, mesh.runMatMul(a, b).product);
}

} // namespace
