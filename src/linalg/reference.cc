#include "linalg/reference.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

#include "linalg/bit_matrix.hh"
#include "simd/kernels.hh"
#include "vlsi/bitmath.hh"

namespace ot::linalg {

IntMatrix
matMul(const IntMatrix &a, const IntMatrix &b)
{
    assert(a.cols() == b.rows());
    const std::size_t inner = a.cols();
    const std::size_t cols = b.cols();
    IntMatrix c(a.rows(), cols, 0);
    if (c.rows() == 0 || inner == 0 || cols == 0)
        return c;
    // One register-tiled pass over raw rows, through the dispatched
    // tile kernel (one 32 x 32 -> 64 multiply per lane when every
    // operand word is below 2^32).
    simd::kernels().macTile(c.rowData(0), cols, a.rowData(0), inner,
                            b.rowData(0), cols, a.rows(), inner, cols);
    return c;
}

std::vector<std::uint64_t>
vecMatMul(const std::vector<std::uint64_t> &a, const IntMatrix &b)
{
    assert(a.size() == b.rows());
    std::vector<std::uint64_t> c(b.cols(), 0);
    for (std::size_t k = 0; k < a.size(); ++k)
        for (std::size_t j = 0; j < b.cols(); ++j)
            c[j] += a[k] * b(k, j);
    return c;
}

BoolMatrix
boolMatMul(const BoolMatrix &a, const BoolMatrix &b)
{
    assert(a.cols() == b.rows());
    // Row i of C is the OR of the rows k of B with a(i, k) set; with
    // the rows packed 64 columns to a word, each OR covers 64 cells.
    const BitMatrix packed = BitMatrix::product(BitMatrix(a), BitMatrix(b));
    BoolMatrix c(a.rows(), b.cols(), 0);
    for (std::size_t i = 0; i < a.rows(); ++i)
        packed.unpackRow(i, c.rowData(i));
    return c;
}

BoolMatrix
boolMatPow(const BoolMatrix &a, unsigned k)
{
    assert(a.rows() == a.cols());
    BoolMatrix result = BoolMatrix::identity(a.rows());
    BoolMatrix base = a;
    while (k) {
        if (k & 1)
            result = boolMatMul(result, base);
        base = boolMatMul(base, base);
        k >>= 1;
    }
    return result;
}

std::vector<Complex>
dftNaive(const std::vector<Complex> &x)
{
    const std::size_t n = x.size();
    std::vector<Complex> out(n);
    for (std::size_t k = 0; k < n; ++k) {
        Complex sum = 0;
        for (std::size_t t = 0; t < n; ++t) {
            double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(k * t) /
                           static_cast<double>(n);
            sum += x[t] * Complex(std::cos(angle), std::sin(angle));
        }
        out[k] = sum;
    }
    return out;
}

std::vector<Complex>
fft(const std::vector<Complex> &x)
{
    const std::size_t n = x.size();
    assert(vlsi::isPow2(n));
    const unsigned logn = vlsi::ilog2Ceil(n);

    std::vector<Complex> a(n);
    for (std::size_t i = 0; i < n; ++i)
        a[vlsi::reverseBits(i, logn)] = x[i];

    for (std::size_t len = 2; len <= n; len <<= 1) {
        double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
        Complex wlen(std::cos(angle), std::sin(angle));
        for (std::size_t i = 0; i < n; i += len) {
            Complex w = 1;
            for (std::size_t j = 0; j < len / 2; ++j) {
                Complex u = a[i + j];
                Complex v = a[i + j + len / 2] * w;
                a[i + j] = u + v;
                a[i + j + len / 2] = u - v;
                w *= wlen;
            }
        }
    }
    return a;
}

double
maxAbsDiff(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    assert(a.size() == b.size());
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
}

} // namespace ot::linalg
