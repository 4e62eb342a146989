// otcheck:hotpath — batch register-plane kernels; keep allocation-free
/**
 * @file
 * Batch kernel table for the struct-of-arrays register planes.
 *
 * Each entry processes one contiguous span (a tree level, a row of the
 * OTN base plane, or an OTC cycle stream) of u64 words per call — the
 * level-at-a-time formulation of the paper's machines, where every
 * processor on a level performs the same register transfer in the same
 * cycle.  Kernels move and combine DATA ONLY: model-time accounting
 * (counters, trace spans, charges) is performed by the caller, outside
 * the table, so the vector backends are bit-identical to the scalar
 * one in every observable except wall-clock time.
 *
 * The table is a plain struct of function pointers resolved once at
 * startup (see backend.hh); hot paths indirect through it with no
 * virtual dispatch and no allocation.
 */

#pragma once

#include <cstddef>
#include <cstdint>

#include "simd/backend.hh"

namespace ot::simd {

/** Absent-value word shared with otn::kNull / otc::kNull. */
inline constexpr std::uint64_t kNullWord = ~std::uint64_t{0};

/** dst[0..n) = value. */
using FillFn = void (*)(std::uint64_t *dst, std::size_t n,
                        std::uint64_t value);

/** Number of nonzero words in src[0..n). */
using CountNonzeroFn = std::uint64_t (*)(const std::uint64_t *src,
                                         std::size_t n);

/** Sum of src[0..n) mod 2^64. */
using ReduceSumFn = std::uint64_t (*)(const std::uint64_t *src,
                                      std::size_t n);

/** Unsigned min of src[0..n); kNullWord for an empty span. */
using ReduceMinFn = std::uint64_t (*)(const std::uint64_t *src,
                                      std::size_t n);

/**
 * flag[j] = (a[j] > b[j] || (a[j] == b[j] && i > j)) ? 1 : 0 for
 * j in [0, n) — the rank-comparison base op of the enumeration sort,
 * with `i` the fixed row index breaking ties by position.
 */
using CmpRankRowFn = void (*)(std::uint64_t *flag, const std::uint64_t *a,
                              const std::uint64_t *b, std::size_t n,
                              std::uint64_t i);

/** out[j] = (key[j] == j) ? val[j] : kNullWord for j in [0, n). */
using SelectEqIndexRowFn = void (*)(std::uint64_t *out,
                                    const std::uint64_t *key,
                                    const std::uint64_t *val,
                                    std::size_t n);

/**
 * For j in [0, n) with key[j] == j: out[j] = val[j], ++cnt[j].  One
 * row's contribution to a column-wise "leaf whose key equals its
 * column index" pick: out accumulates the picked values across rows,
 * cnt the per-column match counts (for the uniqueness assertion).
 * Unmatched columns leave out/cnt untouched.
 */
using ScatterEqIndexRowFn = void (*)(std::uint64_t *out,
                                     std::uint64_t *cnt,
                                     const std::uint64_t *key,
                                     const std::uint64_t *val,
                                     std::size_t n);

/**
 * For j in [0, n) with key[j] == target: *out = val[j], ++matches.
 * Scans a row for the unique element whose key equals `target` (the
 * LEAFTOROOT uniqueness precondition; the caller asserts
 * matches <= 1).  *out is left untouched when nothing matches.
 */
using PickEqIndexAccumFn = void (*)(std::uint64_t *out,
                                    std::uint64_t *matches,
                                    const std::uint64_t *key,
                                    const std::uint64_t *val,
                                    std::size_t n, std::uint64_t target);

/**
 * One bitonic compare-exchange sweep over data[0..total): for every l
 * with (l & d) == 0, order (data[l], data[l ^ d]) ascending iff
 * (l & size) == 0.
 */
using CompexLinearFn = void (*)(std::uint64_t *data, std::size_t total,
                                std::size_t d, std::size_t size);

/**
 * Rotate `count` cycles left by one: for cycle c in [0, count), the
 * L-word segment at base + c * stride becomes {s[1], .., s[l-1],
 * s[0]}.  stride is in words; count == 1 rotates the single segment
 * at `base`.
 */
using RotateCyclesFn = void (*)(std::uint64_t *base, std::size_t count,
                                std::size_t stride, std::size_t l);

/**
 * out[j] = addSat(a[j], b[j]) for j in [0, n): kNullWord ("absent")
 * if either operand is absent, else a + b (mod 2^64) — shortest
 * paths' relaxation over two register rows.
 */
using BinaryRowFn = void (*)(std::uint64_t *out, const std::uint64_t *a,
                             const std::uint64_t *b, std::size_t n);

/**
 * One row of a vector-matrix product and its contribution to the
 * column sums: out[j] = op(s, b[j]), then acc[j] += out[j], for j in
 * [0, n).  Both ops treat kNullWord as "absent":
 *  - mulAccumRow: absent operand -> 0, else s * b[j] (mod 2^64);
 *  - andAccumRow: absent or zero operand -> 0, else 1.
 * An absent or zero s fills out with zeros and leaves acc alone.
 */
using ScalarRowAccumFn = void (*)(std::uint64_t *acc, std::uint64_t *out,
                                  std::uint64_t s, const std::uint64_t *b,
                                  std::size_t n);

/**
 * C += A * B (mod 2^64) by register tile, over row-major operands with
 * row strides lda, ldb and ldc: for i < rows and j < cols,
 * c[i * ldc + j] += sum over k < inner of a[i * lda + k] * b[k * ldb + j].
 *
 * A tile of 4 rows x 2 vectors of C stays in registers for the whole
 * k loop; rows and columns that do not fill a tile take a scalar
 * tail (N = 2 and 4 are all tail on AVX2).  The exactness rule picks
 * one of two instantiations per call: if one OR-scan per operand shows
 * every word below 2^32, each lane product is a single 32 x 32 -> 64
 * multiply (V::mulU32), which is exact there; otherwise it is the
 * full mulLo.  Both wrap mod 2^64 alike, so every backend is
 * bit-identical on every input.
 *  - macTile: plain words.  linalg::matMul, and through it the
 *    generic Machine::runMatMul and the mesh's Cannon.
 *  - macTileAbsent: the OTN product step's absent rule.  A kNullWord
 *    or zero a(i, k) adds nothing and a kNullWord b(k, j) counts as 0
 *    (the scan reads kNullWord as 0, and the tile masks absent words
 *    only when the scan saw one).  The OTN's, and so the OTC's,
 *    whole-matrix products.  Its body is written apart from
 *    macTile's, so the check of an OTN product against
 *    linalg::matMul compares two kernels, not one with itself.
 */
using MacTileFn = void (*)(std::uint64_t *c, std::size_t ldc,
                           const std::uint64_t *a, std::size_t lda,
                           const std::uint64_t *b, std::size_t ldb,
                           std::size_t rows, std::size_t inner,
                           std::size_t cols);

/**
 * acc[j] = combine(acc[j], src[j]) for j in [0, n) — one row's
 * contribution to N column reductions at once (accumSumRow: modular
 * sum; accumMinRow: unsigned min).
 */
using AccumRowFn = void (*)(std::uint64_t *acc, const std::uint64_t *src,
                            std::size_t n);

/**
 * acc[j] = min(acc[j], src[j]) for j in [0, n) with key[j] == j: one
 * row's contribution to the column minima over the leaves whose key
 * equals their column index.  Other columns are untouched.
 */
using AccumMinEqIndexRowFn = void (*)(std::uint64_t *acc,
                                      const std::uint64_t *key,
                                      const std::uint64_t *src,
                                      std::size_t n);

/** One backend's implementations of the batch primitives. */
struct KernelTable
{
    FillFn fill;
    CountNonzeroFn countNonzero;
    ReduceSumFn reduceSum;
    ReduceMinFn reduceMin;
    CmpRankRowFn cmpRankRow;
    SelectEqIndexRowFn selectEqIndexRow;
    ScatterEqIndexRowFn scatterEqIndexRow;
    PickEqIndexAccumFn pickEqIndexAccum;
    CompexLinearFn compexLinear;
    RotateCyclesFn rotateCycles;
    BinaryRowFn addSatRow;
    ScalarRowAccumFn mulAccumRow;
    ScalarRowAccumFn andAccumRow;
    MacTileFn macTile;
    MacTileFn macTileAbsent;
    AccumRowFn accumSumRow;
    AccumRowFn accumMinRow;
    AccumMinEqIndexRowFn accumMinEqIndexRow;
};

/** Portable fallback table, always compiled. */
const KernelTable &scalarKernels();

#if defined(OT_SIMD_HAVE_AVX2)
/** AVX2 table (x86-64 only; call only when the CPU supports AVX2). */
const KernelTable &avx2Kernels();
#endif

/** Table for `b`; aborts if `b` was not compiled in. */
const KernelTable &kernelsFor(Backend b);

/** Table for activeBackend() — resolved once, then cached. */
const KernelTable &kernels();

} // namespace ot::simd
