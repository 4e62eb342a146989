/**
 * @file
 * Boolean matrix rows packed 64 columns to a word.
 *
 * The (AND, OR) product of Section VII-B ORs whole rows of B into rows
 * of C, so with the rows packed one 64-bit OR covers 64 cells.  The
 * sequential reference (linalg::boolMatMul) and the generic
 * topo::Machine::runBoolMatMul both pack B once, accumulate packed
 * rows, and unpack each result row to one 0/1 cell per column, so
 * their callers still see plain matrices.
 */

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hh"

namespace ot::linalg {

/** rows x cols bits, row-major, each row padded to whole words
 *  (bit j of a row is bit j % 64 of its word j / 64). */
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

    /** Row i |= row k of `other` (same column count). */
    void
    orRow(std::size_t i, const BitMatrix &other, std::size_t k)
    {
        assert(other._cols == _cols);
        std::uint64_t *dst = row(i);
        const std::uint64_t *src = other.row(k);
        for (std::size_t w = 0; w < _words; ++w)
            dst[w] |= src[w];
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
