// otcheck:hotpath — batch kernel bodies; keep allocation-free
/**
 * @file
 * Batch kernels, written once against a vector view.
 *
 * Each kernel is a function template over a view type V (ScalarVec,
 * Avx2Vec) satisfying the contract documented in
 * vec_scalar.hh: kWidth lanes of u64, whole-lane masks, unsigned
 * compare/min/max, blend, the low word of a product (mulLo, and
 * mulU32's single 32 x 32 -> 64 multiply for narrow lanes), and
 * horizontal sum/min.  The main loop processes V::kWidth words per
 * iteration (the tile kernels: a 4-row x 2-vector tile) and a scalar
 * epilogue handles the remainder, so every instantiation
 * computes bit-identical results to ScalarVec — sums and products are
 * modular, min is selective, and no kernel reassociates anything the
 * machine model treats as ordered.
 *
 * Kernels never allocate and never touch model-time accounting.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "simd/kernels.hh"

namespace ot::simd {

template <typename V>
void
fillT(std::uint64_t *dst, std::size_t n, std::uint64_t value)
{
    const auto v = V::splat(value);
    std::size_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth)
        V::store(dst + i, v);
    for (; i < n; ++i)
        dst[i] = value;
}

template <typename V>
std::uint64_t
countNonzeroT(const std::uint64_t *src, std::size_t n)
{
    const auto zero = V::splat(0);
    auto acc = V::splat(0);
    std::size_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth)
        acc = V::add(acc, V::eq(V::load(src + i), zero));
    // eq() contributes all-ones (== -1) per zero lane, so the lane sum
    // is minus the number of zero words among the first i.
    std::uint64_t count = i + V::hsum(acc);
    for (; i < n; ++i)
        count += src[i] != 0 ? 1 : 0;
    return count;
}

template <typename V>
std::uint64_t
reduceSumT(const std::uint64_t *src, std::size_t n)
{
    auto acc = V::splat(0);
    std::size_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth)
        acc = V::add(acc, V::load(src + i));
    std::uint64_t sum = V::hsum(acc);
    for (; i < n; ++i)
        sum += src[i];
    return sum;
}

template <typename V>
std::uint64_t
reduceMinT(const std::uint64_t *src, std::size_t n)
{
    auto acc = V::splat(kNullWord);
    std::size_t i = 0;
    for (; i + V::kWidth <= n; i += V::kWidth)
        acc = V::minU(acc, V::load(src + i));
    std::uint64_t m = V::hminU(acc);
    for (; i < n; ++i)
        m = src[i] < m ? src[i] : m;
    return m;
}

template <typename V>
void
cmpRankRowT(std::uint64_t *flag, const std::uint64_t *a,
            const std::uint64_t *b, std::size_t n, std::uint64_t i)
{
    const auto vi = V::splat(i);
    const auto one = V::splat(1);
    std::size_t j = 0;
    for (; j + V::kWidth <= n; j += V::kWidth) {
        const auto va = V::load(a + j);
        const auto vb = V::load(b + j);
        const auto m = V::bitOr(
            V::gtU(va, vb),
            V::bitAnd(V::eq(va, vb), V::gtU(vi, V::iota(j))));
        V::store(flag + j, V::bitAnd(m, one));
    }
    for (; j < n; ++j)
        flag[j] = (a[j] > b[j] || (a[j] == b[j] && i > j)) ? 1 : 0;
}

template <typename V>
void
selectEqIndexRowT(std::uint64_t *out, const std::uint64_t *key,
                  const std::uint64_t *val, std::size_t n)
{
    const auto nullv = V::splat(kNullWord);
    std::size_t j = 0;
    for (; j + V::kWidth <= n; j += V::kWidth) {
        const auto m = V::eq(V::load(key + j), V::iota(j));
        V::store(out + j, V::blend(m, V::load(val + j), nullv));
    }
    for (; j < n; ++j)
        out[j] = key[j] == j ? val[j] : kNullWord;
}

template <typename V>
void
scatterEqIndexRowT(std::uint64_t *out, std::uint64_t *cnt,
                   const std::uint64_t *key, const std::uint64_t *val,
                   std::size_t n)
{
    const auto one = V::splat(1);
    std::size_t j = 0;
    for (; j + V::kWidth <= n; j += V::kWidth) {
        const auto m = V::eq(V::load(key + j), V::iota(j));
        V::store(out + j,
                 V::blend(m, V::load(val + j), V::load(out + j)));
        V::store(cnt + j,
                 V::add(V::load(cnt + j), V::bitAnd(m, one)));
    }
    for (; j < n; ++j) {
        if (key[j] == j) {
            out[j] = val[j];
            ++cnt[j];
        }
    }
}

template <typename V>
void
pickEqIndexAccumT(std::uint64_t *out, std::uint64_t *matches,
                  const std::uint64_t *key, const std::uint64_t *val,
                  std::size_t n, std::uint64_t target)
{
    const auto tv = V::splat(target);
    std::size_t j = 0;
    for (; j + V::kWidth <= n; j += V::kWidth) {
        // Matches are rare (the primitives assert at most one per
        // span), so only drop to lane-at-a-time on a hit.
        if (V::any(V::eq(V::load(key + j), tv))) {
            for (std::size_t k = j; k < j + V::kWidth; ++k) {
                if (key[k] == target) {
                    *out = val[k];
                    ++*matches;
                }
            }
        }
    }
    for (; j < n; ++j) {
        if (key[j] == target) {
            *out = val[j];
            ++*matches;
        }
    }
}

template <typename V>
void
compexLinearT(std::uint64_t *data, std::size_t total, std::size_t d,
              std::size_t size)
{
    // Pairs are (l, l ^ d) for (l & d) == 0, i.e. the first half of
    // each 2d-aligned block against the second half.  Because
    // size >= 2d in every bitonic sweep, the sort direction
    // ((l & size) == 0) is constant across a block, so each block is
    // one branch-free min/max pass.
    for (std::size_t base = 0; base < total; base += 2 * d) {
        const bool asc = (base & size) == 0;
        std::size_t l = base;
        if (d >= V::kWidth) {
            for (; l < base + d; l += V::kWidth) {
                const auto lo = V::load(data + l);
                const auto hi = V::load(data + l + d);
                const auto mn = V::minU(lo, hi);
                const auto mx = V::maxU(lo, hi);
                V::store(data + l, asc ? mn : mx);
                V::store(data + l + d, asc ? mx : mn);
            }
        }
        for (; l < base + d; ++l) {
            const std::uint64_t lo = data[l];
            const std::uint64_t hi = data[l + d];
            const bool swap = asc ? lo > hi : lo < hi;
            if (swap) {
                data[l] = hi;
                data[l + d] = lo;
            }
        }
    }
}

template <typename V>
void
rotateCyclesT(std::uint64_t *base, std::size_t count, std::size_t stride,
              std::size_t l)
{
    for (std::size_t c = 0; c < count; ++c) {
        std::uint64_t *s = base + c * stride;
        if (l > 1) {
            const std::uint64_t first = s[0];
            std::memmove(s, s + 1, (l - 1) * sizeof(std::uint64_t));
            s[l - 1] = first;
        }
    }
}

template <typename V>
void
addSatRowT(std::uint64_t *out, const std::uint64_t *a,
           const std::uint64_t *b, std::size_t n)
{
    const auto nullv = V::splat(kNullWord);
    std::size_t j = 0;
    for (; j + V::kWidth <= n; j += V::kWidth) {
        const auto va = V::load(a + j);
        const auto vb = V::load(b + j);
        const auto absent = V::bitOr(V::eq(va, nullv), V::eq(vb, nullv));
        V::store(out + j, V::blend(absent, nullv, V::add(va, vb)));
    }
    for (; j < n; ++j)
        out[j] = (a[j] == kNullWord || b[j] == kNullWord) ? kNullWord
                                                          : a[j] + b[j];
}

/** mulAccumRow for a present, nonzero s; kNarrow iff s < 2^32, which
 *  lets the vector views drop a multiply (AVX2: 2 instead of 3). */
template <typename V, bool kNarrow>
void
mulAccumRowBody(std::uint64_t *acc, std::uint64_t *out, std::uint64_t s,
                const std::uint64_t *b, std::size_t n)
{
    const auto vs = V::splat(s);
    const auto nullv = V::splat(kNullWord);
    const auto zero = V::splat(0);
    std::size_t j = 0;
    for (; j + V::kWidth <= n; j += V::kWidth) {
        const auto vb = V::load(b + j);
        const auto prod = kNarrow ? V::mulLoNarrow(vb, vs) : V::mulLo(vb, vs);
        const auto p = V::blend(V::eq(vb, nullv), zero, prod);
        V::store(out + j, p);
        V::store(acc + j, V::add(V::load(acc + j), p));
    }
    for (; j < n; ++j) {
        out[j] = b[j] == kNullWord ? 0 : s * b[j];
        acc[j] += out[j];
    }
}

template <typename V>
void
mulAccumRowT(std::uint64_t *acc, std::uint64_t *out, std::uint64_t s,
             const std::uint64_t *b, std::size_t n)
{
    if (s == kNullWord || s == 0)
        fillT<V>(out, n, 0); // adds nothing
    else if (s >> 32 == 0)
        mulAccumRowBody<V, true>(acc, out, s, b, n);
    else
        mulAccumRowBody<V, false>(acc, out, s, b, n);
}

template <typename V>
void
andAccumRowT(std::uint64_t *acc, std::uint64_t *out, std::uint64_t s,
             const std::uint64_t *b, std::size_t n)
{
    if (s == kNullWord || s == 0) {
        fillT<V>(out, n, 0); // adds nothing
        return;
    }
    const auto nullv = V::splat(kNullWord);
    const auto zero = V::splat(0);
    const auto one = V::splat(1);
    std::size_t j = 0;
    for (; j + V::kWidth <= n; j += V::kWidth) {
        const auto vb = V::load(b + j);
        const auto off = V::bitOr(V::eq(vb, nullv), V::eq(vb, zero));
        const auto bit = V::blend(off, zero, one);
        V::store(out + j, bit);
        V::store(acc + j, V::add(V::load(acc + j), bit));
    }
    for (; j < n; ++j) {
        out[j] = (b[j] == kNullWord || b[j] == 0) ? 0 : 1;
        acc[j] += out[j];
    }
}

/** What the tile kernels' exactness rule needs to know of an operand. */
struct WordScan
{
    bool wide = false;   // some word other than kNullWord is >= 2^32
    bool absent = false; // some word is kNullWord
};

/** One OR-scan of the rows x cols block at p (row stride ld). */
template <typename V>
WordScan
scanWordsT(const std::uint64_t *p, std::size_t rows, std::size_t cols,
           std::size_t ld)
{
    const auto nullv = V::splat(kNullWord);
    const auto zero = V::splat(0);
    auto bits = V::splat(0);
    auto nulls = V::splat(0);
    std::uint64_t tail_bits = 0;
    bool tail_null = false;
    for (std::size_t i = 0; i < rows; ++i) {
        const std::uint64_t *row = p + i * ld;
        std::size_t j = 0;
        for (; j + V::kWidth <= cols; j += V::kWidth) {
            const auto x = V::load(row + j);
            const auto null = V::eq(x, nullv);
            nulls = V::bitOr(nulls, null);
            bits = V::bitOr(bits, V::blend(null, zero, x));
        }
        for (; j < cols; ++j) {
            tail_null |= row[j] == kNullWord;
            tail_bits |= row[j] == kNullWord ? 0 : row[j];
        }
    }
    return {V::any(V::gtU(bits, V::splat(0xffffffffu))) || tail_bits >> 32,
            V::any(nulls) || tail_null};
}

/** a * b per lane: one 32 x 32 -> 64 multiply when kNarrow (both
 *  operands below 2^32), else the full low word. */
template <typename V, bool kNarrow>
typename V::Reg
mulTerm(typename V::Reg a, typename V::Reg b)
{
    if constexpr (kNarrow)
        return V::mulU32(a, b);
    else
        return V::mulLo(a, b);
}

/** The 4-row x 2-vector tile of C at (c, a, b), held in registers
 *  across the whole k loop. */
template <typename V, bool kNarrow>
void
macTile4x2(std::uint64_t *c, std::size_t ldc, const std::uint64_t *a,
           std::size_t lda, const std::uint64_t *b, std::size_t ldb,
           std::size_t inner)
{
    constexpr std::size_t W = V::kWidth;
    typename V::Reg lo[4], hi[4];
    for (std::size_t r = 0; r < 4; ++r) {
        lo[r] = V::load(c + r * ldc);
        hi[r] = V::load(c + r * ldc + W);
    }
    for (std::size_t k = 0; k < inner; ++k) {
        const auto b0 = V::load(b + k * ldb);
        const auto b1 = V::load(b + k * ldb + W);
        for (std::size_t r = 0; r < 4; ++r) {
            const auto x = V::splat(a[r * lda + k]);
            lo[r] = V::add(lo[r], mulTerm<V, kNarrow>(x, b0));
            hi[r] = V::add(hi[r], mulTerm<V, kNarrow>(x, b1));
        }
    }
    for (std::size_t r = 0; r < 4; ++r) {
        V::store(c + r * ldc, lo[r]);
        V::store(c + r * ldc + W, hi[r]);
    }
}

/** macTile's scalar tail: rows [i0, i1) x columns [j0, j1) of C. */
inline void
macTileScalar(std::uint64_t *c, std::size_t ldc, const std::uint64_t *a,
              std::size_t lda, const std::uint64_t *b, std::size_t ldb,
              std::size_t inner, std::size_t i0, std::size_t i1,
              std::size_t j0, std::size_t j1)
{
    for (std::size_t i = i0; i < i1; ++i)
        for (std::size_t j = j0; j < j1; ++j) {
            std::uint64_t sum = c[i * ldc + j];
            for (std::size_t k = 0; k < inner; ++k)
                sum += a[i * lda + k] * b[k * ldb + j];
            c[i * ldc + j] = sum;
        }
}

template <typename V, bool kNarrow>
void
macTileBody(std::uint64_t *c, std::size_t ldc, const std::uint64_t *a,
            std::size_t lda, const std::uint64_t *b, std::size_t ldb,
            std::size_t rows, std::size_t inner, std::size_t cols)
{
    constexpr std::size_t kCols = 2 * V::kWidth;
    const std::size_t tiled_cols = cols - cols % kCols;
    std::size_t i = 0;
    for (; i + 4 <= rows; i += 4) {
        for (std::size_t j = 0; j < tiled_cols; j += kCols)
            macTile4x2<V, kNarrow>(c + i * ldc + j, ldc, a + i * lda, lda,
                                   b + j, ldb, inner);
        macTileScalar(c, ldc, a, lda, b, ldb, inner, i, i + 4, tiled_cols,
                      cols);
    }
    macTileScalar(c, ldc, a, lda, b, ldb, inner, i, rows, 0, cols);
}

template <typename V>
void
macTileT(std::uint64_t *c, std::size_t ldc, const std::uint64_t *a,
         std::size_t lda, const std::uint64_t *b, std::size_t ldb,
         std::size_t rows, std::size_t inner, std::size_t cols)
{
    // kNullWord is a wide word here.
    const WordScan sa = scanWordsT<V>(a, rows, inner, lda);
    const WordScan sb = scanWordsT<V>(b, inner, cols, ldb);
    if (!(sa.wide || sa.absent || sb.wide || sb.absent))
        macTileBody<V, true>(c, ldc, a, lda, b, ldb, rows, inner, cols);
    else
        macTileBody<V, false>(c, ldc, a, lda, b, ldb, rows, inner, cols);
}

/**
 * macTileAbsent's 4-row x 2-vector tile at (c, a, b).  With kMask,
 * a's words are read as 0 where absent (a zero then adds nothing) and
 * b's vectors are masked to 0 where absent; without it, neither
 * operand holds an absent word.
 */
template <typename V, bool kNarrow, bool kMask>
void
absentTile4x2(std::uint64_t *c, std::size_t ldc, const std::uint64_t *a,
              std::size_t lda, const std::uint64_t *b, std::size_t ldb,
              std::size_t inner)
{
    constexpr std::size_t W = V::kWidth;
    const auto nullv = V::splat(kNullWord);
    const auto zero = V::splat(0);
    typename V::Reg acc[4][2];
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t v = 0; v < 2; ++v)
            acc[r][v] = V::load(c + r * ldc + v * W);
    for (std::size_t k = 0; k < inner; ++k) {
        typename V::Reg bk[2];
        for (std::size_t v = 0; v < 2; ++v) {
            const auto x = V::load(b + k * ldb + v * W);
            bk[v] = kMask ? V::blend(V::eq(x, nullv), zero, x) : x;
        }
        for (std::size_t r = 0; r < 4; ++r) {
            const std::uint64_t s = a[r * lda + k];
            const auto x = V::splat(kMask && s == kNullWord ? 0 : s);
            for (std::size_t v = 0; v < 2; ++v)
                acc[r][v] = V::add(acc[r][v], mulTerm<V, kNarrow>(x, bk[v]));
        }
    }
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t v = 0; v < 2; ++v)
            V::store(c + r * ldc + v * W, acc[r][v]);
}

/** macTileAbsent's scalar tail: rows [i0, i1) x columns [j0, j1). */
inline void
absentScalar(std::uint64_t *c, std::size_t ldc, const std::uint64_t *a,
             std::size_t lda, const std::uint64_t *b, std::size_t ldb,
             std::size_t inner, std::size_t i0, std::size_t i1,
             std::size_t j0, std::size_t j1)
{
    for (std::size_t j = j0; j < j1; ++j)
        for (std::size_t i = i0; i < i1; ++i) {
            std::uint64_t sum = c[i * ldc + j];
            for (std::size_t k = 0; k < inner; ++k) {
                const std::uint64_t s = a[i * lda + k];
                const std::uint64_t x = b[k * ldb + j];
                if (s != kNullWord && x != kNullWord)
                    sum += s * x;
            }
            c[i * ldc + j] = sum;
        }
}

template <typename V, bool kNarrow, bool kMask>
void
macTileAbsentBody(std::uint64_t *c, std::size_t ldc, const std::uint64_t *a,
                  std::size_t lda, const std::uint64_t *b, std::size_t ldb,
                  std::size_t rows, std::size_t inner, std::size_t cols)
{
    constexpr std::size_t kCols = 2 * V::kWidth;
    const std::size_t tiled_rows = rows - rows % 4;
    const std::size_t tiled_cols = cols - cols % kCols;
    for (std::size_t i = 0; i < tiled_rows; i += 4)
        for (std::size_t j = 0; j < tiled_cols; j += kCols)
            absentTile4x2<V, kNarrow, kMask>(c + i * ldc + j, ldc,
                                             a + i * lda, lda, b + j, ldb,
                                             inner);
    absentScalar(c, ldc, a, lda, b, ldb, inner, 0, tiled_rows, tiled_cols,
                 cols);
    absentScalar(c, ldc, a, lda, b, ldb, inner, tiled_rows, rows, 0, cols);
}

template <typename V>
void
macTileAbsentT(std::uint64_t *c, std::size_t ldc, const std::uint64_t *a,
               std::size_t lda, const std::uint64_t *b, std::size_t ldb,
               std::size_t rows, std::size_t inner, std::size_t cols)
{
    const WordScan sa = scanWordsT<V>(a, rows, inner, lda);
    const WordScan sb = scanWordsT<V>(b, inner, cols, ldb);
    const bool narrow = !(sa.wide || sb.wide);
    const bool mask = sa.absent || sb.absent;
    MacTileFn body = macTileAbsentBody<V, false, false>;
    if (narrow)
        body = mask ? macTileAbsentBody<V, true, true>
                    : macTileAbsentBody<V, true, false>;
    else if (mask)
        body = macTileAbsentBody<V, false, true>;
    body(c, ldc, a, lda, b, ldb, rows, inner, cols);
}

template <typename V>
void
accumSumRowT(std::uint64_t *acc, const std::uint64_t *src, std::size_t n)
{
    std::size_t j = 0;
    for (; j + V::kWidth <= n; j += V::kWidth)
        V::store(acc + j, V::add(V::load(acc + j), V::load(src + j)));
    for (; j < n; ++j)
        acc[j] += src[j];
}

template <typename V>
void
accumMinRowT(std::uint64_t *acc, const std::uint64_t *src, std::size_t n)
{
    std::size_t j = 0;
    for (; j + V::kWidth <= n; j += V::kWidth)
        V::store(acc + j, V::minU(V::load(acc + j), V::load(src + j)));
    for (; j < n; ++j)
        acc[j] = src[j] < acc[j] ? src[j] : acc[j];
}

template <typename V>
void
accumMinEqIndexRowT(std::uint64_t *acc, const std::uint64_t *key,
                    const std::uint64_t *src, std::size_t n)
{
    std::size_t j = 0;
    for (; j + V::kWidth <= n; j += V::kWidth) {
        const auto m = V::eq(V::load(key + j), V::iota(j));
        const auto va = V::load(acc + j);
        V::store(acc + j, V::blend(m, V::minU(va, V::load(src + j)), va));
    }
    for (; j < n; ++j)
        if (key[j] == j && src[j] < acc[j])
            acc[j] = src[j];
}

} // namespace ot::simd
