/**
 * @file
 * Dense row-major matrix used by the matrix/graph workloads.
 *
 * The networks operate on small integer or Boolean matrices (the
 * paper's words are O(log N) bits); this type is the host-side
 * container for inputs, expected outputs and adjacency matrices.
 */

#pragma once

#include <cassert>
#include <cstddef>
#include <ostream>
#include <vector>

namespace ot::linalg {

/** Dense rows x cols matrix of T, row-major storage. */
template <typename T>
class Matrix
{
  public:
    Matrix() = default;

    Matrix(std::size_t rows, std::size_t cols, T init = T{})
        : _rows(rows), _cols(cols), _data(rows * cols, init)
    {}

    /** Build from nested initializer data (rows of equal length). */
    static Matrix
    fromRows(const std::vector<std::vector<T>> &rows)
    {
        if (rows.empty())
            return Matrix();
        Matrix m(rows.size(), rows[0].size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            assert(rows[i].size() == m._cols);
            for (std::size_t j = 0; j < m._cols; ++j)
                m(i, j) = rows[i][j];
        }
        return m;
    }

    /** The n x n identity (requires T constructible from 0/1). */
    static Matrix
    identity(std::size_t n)
    {
        Matrix m(n, n, T{0});
        for (std::size_t i = 0; i < n; ++i)
            m(i, i) = T{1};
        return m;
    }

    std::size_t rows() const { return _rows; }
    std::size_t cols() const { return _cols; }

    T &
    operator()(std::size_t i, std::size_t j)
    {
        assert(i < _rows && j < _cols);
        return _data[i * _cols + j];
    }

    const T &
    operator()(std::size_t i, std::size_t j) const
    {
        assert(i < _rows && j < _cols);
        return _data[i * _cols + j];
    }

    /** Row i's cols() cells in place, for inner loops that should
     *  not pay operator()'s per-cell bounds check. */
    T *
    rowData(std::size_t i)
    {
        assert(i < _rows);
        return _data.data() + i * _cols;
    }

    const T *
    rowData(std::size_t i) const
    {
        assert(i < _rows);
        return _data.data() + i * _cols;
    }

    /** Row i as a copy (convenient for feeding input ports). */
    std::vector<T>
    row(std::size_t i) const
    {
        assert(i < _rows);
        return {_data.begin() + static_cast<long>(i * _cols),
                _data.begin() + static_cast<long>((i + 1) * _cols)};
    }

    /** Column j as a copy. */
    std::vector<T>
    col(std::size_t j) const
    {
        assert(j < _cols);
        std::vector<T> out(_rows);
        for (std::size_t i = 0; i < _rows; ++i)
            out[i] = (*this)(i, j);
        return out;
    }

    bool operator==(const Matrix &other) const = default;

    /** Transposed copy. */
    Matrix
    transposed() const
    {
        Matrix t(_cols, _rows);
        for (std::size_t i = 0; i < _rows; ++i)
            for (std::size_t j = 0; j < _cols; ++j)
                t(j, i) = (*this)(i, j);
        return t;
    }

  private:
    std::size_t _rows = 0;
    std::size_t _cols = 0;
    std::vector<T> _data;
};

template <typename T>
std::ostream &
operator<<(std::ostream &os, const Matrix<T> &m)
{
    for (std::size_t i = 0; i < m.rows(); ++i) {
        for (std::size_t j = 0; j < m.cols(); ++j)
            os << (j ? " " : "") << m(i, j);
        os << "\n";
    }
    return os;
}

/** Integer matrices as used by the machines (words are uint64). */
using IntMatrix = Matrix<std::uint64_t>;

/** Boolean matrices (Section VII-B); stored as bytes for addressing. */
using BoolMatrix = Matrix<std::uint8_t>;

} // namespace ot::linalg
