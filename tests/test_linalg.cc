/**
 * @file
 * Tests for the linear algebra substrate: Matrix container, packed
 * Boolean rows and the sequential reference algorithms (matmul,
 * Boolean matmul, DFT/FFT).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "linalg/bit_matrix.hh"
#include "linalg/matrix.hh"
#include "linalg/reference.hh"
#include "sim/rng.hh"

namespace {

using namespace ot::linalg;
using ot::sim::Rng;

TEST(Matrix, ConstructAndIndex)
{
    IntMatrix m(2, 3, 7);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m(1, 2), 7u);
    m(0, 1) = 42;
    EXPECT_EQ(m(0, 1), 42u);
}

TEST(Matrix, FromRowsAndEquality)
{
    auto m = IntMatrix::fromRows({{1, 2}, {3, 4}});
    IntMatrix same(2, 2);
    same(0, 0) = 1;
    same(0, 1) = 2;
    same(1, 0) = 3;
    same(1, 1) = 4;
    EXPECT_EQ(m, same);
}

TEST(Matrix, Identity)
{
    auto id = IntMatrix::identity(3);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 3; ++j)
            EXPECT_EQ(id(i, j), i == j ? 1u : 0u);
}

TEST(Matrix, RowColTransposed)
{
    auto m = IntMatrix::fromRows({{1, 2, 3}, {4, 5, 6}});
    EXPECT_EQ(m.row(1), (std::vector<std::uint64_t>{4, 5, 6}));
    EXPECT_EQ(m.col(2), (std::vector<std::uint64_t>{3, 6}));
    auto t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t(2, 1), 6u);
}

TEST(Reference, MatMulSmall)
{
    auto a = IntMatrix::fromRows({{1, 2}, {3, 4}});
    auto b = IntMatrix::fromRows({{5, 6}, {7, 8}});
    auto c = matMul(a, b);
    EXPECT_EQ(c, IntMatrix::fromRows({{19, 22}, {43, 50}}));
}

TEST(Reference, MatMulIdentity)
{
    Rng rng(1);
    IntMatrix a(5, 5);
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 5; ++j)
            a(i, j) = rng.uniform(0, 99);
    EXPECT_EQ(matMul(a, IntMatrix::identity(5)), a);
    EXPECT_EQ(matMul(IntMatrix::identity(5), a), a);
}

TEST(Reference, VecMatMulMatchesMatMul)
{
    Rng rng(2);
    IntMatrix b(6, 6);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 6; ++j)
            b(i, j) = rng.uniform(0, 9);
    std::vector<std::uint64_t> a{1, 2, 3, 4, 5, 6};
    auto c = vecMatMul(a, b);
    IntMatrix arow(1, 6);
    for (std::size_t j = 0; j < 6; ++j)
        arow(0, j) = a[j];
    auto full = matMul(arow, b);
    for (std::size_t j = 0; j < 6; ++j)
        EXPECT_EQ(c[j], full(0, j));
}

TEST(Reference, BoolMatMulBasics)
{
    auto a = BoolMatrix::fromRows({{1, 0}, {0, 1}});
    auto b = BoolMatrix::fromRows({{0, 1}, {1, 0}});
    EXPECT_EQ(boolMatMul(a, b), b);
    // Anything times all-ones row-reachable.
    auto ones = BoolMatrix(2, 2, 1);
    EXPECT_EQ(boolMatMul(ones, ones), ones);
}

TEST(Reference, BoolMatPowIsReachability)
{
    // Path graph 0 -> 1 -> 2 -> 3 (directed).
    BoolMatrix adj(4, 4, 0);
    adj(0, 1) = adj(1, 2) = adj(2, 3) = 1;
    auto two = boolMatPow(adj, 2);
    EXPECT_EQ(two(0, 2), 1);
    EXPECT_EQ(two(0, 3), 0);
    auto three = boolMatPow(adj, 3);
    EXPECT_EQ(three(0, 3), 1);
    EXPECT_EQ(boolMatPow(adj, 0), BoolMatrix::identity(4));
}

// ---- Differential checks of the raw-row references against the
// textbook triple loop over operator(), on shapes that straddle the
// 64-column words of the packed Boolean product.

const std::size_t kDims[] = {1, 3, 63, 64, 65, 130};

IntMatrix
naiveMatMul(const IntMatrix &a, const IntMatrix &b)
{
    IntMatrix c(a.rows(), b.cols(), 0);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j)
            for (std::size_t k = 0; k < a.cols(); ++k)
                c(i, j) += a(i, k) * b(k, j);
    return c;
}

BoolMatrix
naiveBoolMatMul(const BoolMatrix &a, const BoolMatrix &b)
{
    BoolMatrix c(a.rows(), b.cols(), 0);
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j)
            for (std::size_t k = 0; k < a.cols(); ++k)
                if (a(i, k) && b(k, j))
                    c(i, j) = 1;
    return c;
}

/** Full-range words, so the products and their sums wrap. */
IntMatrix
randomWords(std::size_t rows, std::size_t cols, Rng &rng)
{
    IntMatrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            m(i, j) = rng.next();
    return m;
}

/** True cells hold arbitrary nonzero bytes, not just 1. */
BoolMatrix
randomBools(std::size_t rows, std::size_t cols, double density, Rng &rng)
{
    BoolMatrix m(rows, cols, 0);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            if (rng.bernoulli(density))
                m(i, j) = static_cast<std::uint8_t>(rng.uniform(1, 255));
    return m;
}

TEST(Reference, MatMulMatchesNaiveOnEveryShape)
{
    Rng rng(4);
    for (std::size_t r : kDims)
        for (std::size_t k : kDims)
            for (std::size_t c : kDims) {
                auto a = randomWords(r, k, rng);
                auto b = randomWords(k, c, rng);
                EXPECT_EQ(matMul(a, b), naiveMatMul(a, b))
                    << r << "x" << k << " * " << k << "x" << c;
            }
}

TEST(Reference, BoolMatMulMatchesNaiveOnEveryShape)
{
    Rng rng(5);
    for (std::size_t r : kDims)
        for (std::size_t k : kDims)
            for (std::size_t c : kDims) {
                // About half the result cells true: (1 - d^2)^k ~ 1/2.
                const double density =
                    std::sqrt(0.7 / static_cast<double>(k));
                auto a = randomBools(r, k, density, rng);
                auto b = randomBools(k, c, density, rng);
                EXPECT_EQ(boolMatMul(a, b), naiveBoolMatMul(a, b))
                    << r << "x" << k << " * " << k << "x" << c;
            }
}

TEST(BitMatrix, SetTestAndFirstSetAcrossWordBoundaries)
{
    for (std::size_t cols : {1, 63, 64, 65, 130}) {
        // Row 0 stays clear; row 1 gets its last column; row 2 gets a
        // column in its last word and then one in its first.
        BitMatrix m(3, cols);
        m.set(1, cols - 1);
        m.set(2, cols - 1);
        m.set(2, cols / 2);
        EXPECT_EQ(m.firstSet(0), cols) << "cols = " << cols;
        EXPECT_EQ(m.firstSet(1), cols - 1) << "cols = " << cols;
        EXPECT_EQ(m.firstSet(2), cols / 2) << "cols = " << cols;
        std::vector<std::uint8_t> cells(cols);
        for (std::size_t i = 0; i < 3; ++i) {
            m.unpackRow(i, cells.data());
            for (std::size_t j = 0; j < cols; ++j) {
                const bool want =
                    (i >= 1 && j == cols - 1) || (i == 2 && j == cols / 2);
                EXPECT_EQ(m.test(i, j), want) << i << "," << j;
                EXPECT_EQ(cells[j], want ? 1 : 0) << i << "," << j;
            }
        }
    }
}

TEST(Reference, BoolMatPowEqualsRepeatedBoolMatMul)
{
    Rng rng(7);
    for (std::size_t n : {65, 130}) {
        auto a = randomBools(n, n, 1.5 / static_cast<double>(n), rng);
        BoolMatrix repeated = BoolMatrix::identity(n);
        for (unsigned k = 0; k <= 6; ++k) {
            EXPECT_EQ(boolMatPow(a, k), repeated) << "n = " << n
                                                   << " k = " << k;
            repeated = boolMatMul(repeated, a);
        }
    }
}

TEST(Reference, DftOfImpulseIsFlat)
{
    std::vector<Complex> x(8, 0.0);
    x[0] = 1.0;
    auto spectrum = dftNaive(x);
    for (const auto &v : spectrum)
        EXPECT_NEAR(std::abs(v - Complex(1.0, 0.0)), 0.0, 1e-9);
}

TEST(Reference, DftOfConstantIsImpulse)
{
    std::vector<Complex> x(8, 1.0);
    auto spectrum = dftNaive(x);
    EXPECT_NEAR(std::abs(spectrum[0] - Complex(8.0, 0.0)), 0.0, 1e-9);
    for (std::size_t k = 1; k < 8; ++k)
        EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-9);
}

TEST(Reference, FftMatchesNaiveDft)
{
    Rng rng(3);
    for (std::size_t n : {2, 4, 8, 16, 64, 256}) {
        std::vector<Complex> x(n);
        for (auto &v : x)
            v = Complex(rng.uniformReal() - 0.5, rng.uniformReal() - 0.5);
        EXPECT_LT(maxAbsDiff(fft(x), dftNaive(x)), 1e-6) << "n = " << n;
    }
}

TEST(Reference, MaxAbsDiff)
{
    std::vector<Complex> a{1.0, 2.0};
    std::vector<Complex> b{1.0, Complex(2.0, 3.0)};
    EXPECT_NEAR(maxAbsDiff(a, b), 3.0, 1e-12);
}

} // namespace
