// otcheck:hotpath — whole-vector sort ranks; keep allocation-free
/**
 * @file
 * Whole-vector enumeration-sort ranks from one stable radix order.
 *
 * The enumeration sort (SORT-OTN, SORT-OTC) ranks word i of a row
 * vector a against every word of a column vector b, ties broken by
 * global index (§II-B's duplicate-safe variant, as in the cmpRankRow
 * kernel).  The machine compares all N^2 pairs in O(log^2 N) model
 * time; on the host the same N counts come from sorting both vectors
 * once and merging the two orders, O(N) per byte of the values.
 */

#pragma once

#include <cstddef>
#include <cstdint>

namespace ot::simd {

/**
 * Whether word x at index gx outranks word y at index gy: x > y, or
 * x == y and gx > gy.  The tie-break of cmpRankRow, one pair at a
 * time (the point reads of a RankCount plane).
 */
constexpr bool
outranks(std::uint64_t x, std::size_t gx, std::uint64_t y, std::size_t gy)
{
    return x > y || (x == y && gx > gy);
}

/**
 * rank[i] = #{j in [0, n) : outranks(a[i], i, b[j], j)} for i in
 * [0, n): how many words of b the word a[i] outranks.  a and b may be
 * the same vector; then the ranks are a permutation of [0, n).
 *
 * Both vectors are ordered stably by value with an LSD radix sort
 * (one counting pass per byte that some value varies in), so ties
 * fall in index order, then merged.  kNullWord, the largest word,
 * ranks after every other word in index order without costing a
 * pass.  The scratch is per host thread, so concurrent farm lanes can
 * rank at once.
 */
void rankCounts(std::uint64_t *rank, const std::uint64_t *a,
                const std::uint64_t *b, std::size_t n);

} // namespace ot::simd
