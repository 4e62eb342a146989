/**
 * @file
 * Tests for the hexagonal systolic array (Kung & Leiserson [15], the
 * paper's other low-area baseline).
 */

#include <gtest/gtest.h>

#include "analysis/fitting.hh"
#include "baselines/hex_array.hh"
#include "baselines/mesh.hh"
#include "linalg/reference.hh"
#include "sim/rng.hh"

namespace {

using namespace ot;
using sim::Rng;
using vlsi::CostModel;
using vlsi::DelayModel;
using vlsi::WordFormat;

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
        baselines::HexArray hex(n, CostModel(DelayModel::Logarithmic,
                                             WordFormat(32)));
        EXPECT_EQ(hex.matMul(a, b), linalg::matMul(a, b)) << "n=" << n;
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
    baselines::HexArray hex(n, CostModel(DelayModel::Logarithmic,
                                         WordFormat(16)));
    EXPECT_EQ(hex.boolMatMul(a, b), linalg::boolMatMul(a, b));
}

TEST(HexArray, BeatsAreThetaN)
{
    Rng rng(3);
    for (std::size_t n : {8, 16, 32}) {
        auto a = randomMatrix(n, 4, rng);
        auto b = randomMatrix(n, 4, rng);
        baselines::HexArray hex(n, CostModel(DelayModel::Logarithmic,
                                             WordFormat(24)));
        hex.matMul(a, b);
        EXPECT_EQ(hex.lastBeats(), 3 * (n - 1) + 1);
    }
}

TEST(HexArray, TimeIsLinearAreaQuadratic)
{
    std::vector<double> ns, times, areas;
    Rng rng(4);
    for (std::size_t n : {8, 16, 32, 64}) {
        auto a = randomMatrix(n, 4, rng);
        auto b = randomMatrix(n, 4, rng);
        baselines::HexArray hex(n, CostModel(DelayModel::Logarithmic,
                                             WordFormat(24)));
        auto t0 = hex.now();
        hex.matMul(a, b);
        ns.push_back(static_cast<double>(n));
        times.push_back(static_cast<double>(hex.now() - t0));
        areas.push_back(static_cast<double>(hex.chipArea()));
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
    baselines::HexArray hl(n, CostModel(DelayModel::Logarithmic,
                                        WordFormat(24)));
    baselines::HexArray hc(n, CostModel(DelayModel::Constant,
                                        WordFormat(24)));
    auto t0 = hl.now();
    hl.matMul(a, b);
    auto tl = hl.now() - t0;
    t0 = hc.now();
    hc.matMul(a, b);
    auto tc = hc.now() - t0;
    EXPECT_LT(static_cast<double>(tl) / static_cast<double>(tc), 4.0);
}

TEST(HexArray, AgreesWithCannonMesh)
{
    Rng rng(6);
    std::size_t n = 16;
    auto a = randomMatrix(n, 6, rng);
    auto b = randomMatrix(n, 6, rng);
    CostModel cm(DelayModel::Logarithmic, WordFormat(32));
    baselines::HexArray hex(n, cm);
    baselines::MeshMachine mesh(n * n, cm);
    EXPECT_EQ(hex.matMul(a, b),
              baselines::meshMatMul(mesh, a, b).product);
}

} // namespace
