/**
 * @file
 * Boolean matrix rows packed 64 columns to a word.
 *
 * The (AND, OR) product of Section VII-B ORs whole rows of B into rows
 * of C, so with the rows packed one 64-bit OR covers 64 cells.  The
 * sequential reference (linalg::boolMatMul), the generic
 * topo::Machine::runBoolMatMul and the mesh's Cannon grid all compute
 * the product with BitMatrix::product; the first two unpack each
 * result row to one 0/1 cell per column, so their callers still see
 * plain matrices, and the mesh's closure stays packed across its
 * squarings.
 */

#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hh"

namespace ot::linalg {

/** rows x cols bits, row-major, each row padded to whole words
 *  (bit j of a row is bit j % 64 of its word j / 64; padding bits
 *  stay clear). */
class BitMatrix
{
  public:
    static constexpr std::size_t kWordBits = 64;

    /** All-zero rows x cols bits. */
    BitMatrix(std::size_t rows, std::size_t cols)
        : _rows(rows), _cols(cols),
          _words((cols + kWordBits - 1) / kWordBits),
          _bits(rows * _words, 0)
    {}

    /** Pack m: bit (i, j) is set iff m(i, j) is nonzero. */
    explicit BitMatrix(const BoolMatrix &m) : BitMatrix(m.rows(), m.cols())
    {
        for (std::size_t i = 0; i < _rows; ++i) {
            const std::uint8_t *src = m.rowData(i);
            std::uint64_t *dst = row(i);
            for (std::size_t j = 0; j < _cols; ++j)
                dst[j / kWordBits] |= std::uint64_t{src[j] != 0}
                                      << (j % kWordBits);
        }
    }

    std::size_t rows() const { return _rows; }
    std::size_t cols() const { return _cols; }

    /** Bit (i, j). */
    bool
    test(std::size_t i, std::size_t j) const
    {
        assert(j < _cols);
        return (row(i)[j / kWordBits] >> (j % kWordBits)) & 1;
    }

    /** Set bit (i, j). */
    void
    set(std::size_t i, std::size_t j)
    {
        assert(j < _cols);
        row(i)[j / kWordBits] |= std::uint64_t{1} << (j % kWordBits);
    }

    /** Column of row i's first set bit, or cols() if the row is clear. */
    std::size_t
    firstSet(std::size_t i) const
    {
        const std::uint64_t *src = row(i);
        for (std::size_t w = 0; w < _words; ++w)
            if (src[w])
                return w * kWordBits +
                       static_cast<std::size_t>(std::countr_zero(src[w]));
        return _cols;
    }

    /**
     * The (AND, OR) product a * b: row i is the OR of the rows k of b
     * with bit (i, k) of a set.
     */
    static BitMatrix
    product(const BitMatrix &a, const BitMatrix &b)
    {
        assert(a._cols == b._rows);
        BitMatrix c(a._rows, b._cols);
        for (std::size_t i = 0; i < a._rows; ++i) {
            std::uint64_t *dst = c.row(i);
            const std::uint64_t *ai = a.row(i);
            for (std::size_t w = 0; w < a._words; ++w)
                for (std::uint64_t bits = ai[w]; bits; bits &= bits - 1) {
                    const std::uint64_t *src =
                        b.row(w * kWordBits +
                              static_cast<std::size_t>(
                                  std::countr_zero(bits)));
                    for (std::size_t v = 0; v < c._words; ++v)
                        dst[v] |= src[v];
                }
        }
        return c;
    }

    /** Write row i as 0/1 cells to out[0, cols). */
    template <typename T>
    void
    unpackRow(std::size_t i, T *out) const
    {
        const std::uint64_t *src = row(i);
        for (std::size_t j = 0; j < _cols; ++j)
            out[j] = static_cast<T>((src[j / kWordBits] >> (j % kWordBits)) &
                                    1);
    }

  private:
    std::uint64_t *
    row(std::size_t i)
    {
        assert(i < _rows);
        return _bits.data() + i * _words;
    }

    const std::uint64_t *
    row(std::size_t i) const
    {
        assert(i < _rows);
        return _bits.data() + i * _words;
    }

    std::size_t _rows;
    std::size_t _cols;
    std::size_t _words;
    std::vector<std::uint64_t> _bits;
};

} // namespace ot::linalg
