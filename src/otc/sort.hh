/**
 * @file
 * Procedure SORT-OTC (Section VI-A of the paper): sorting N = K * L
 * numbers on a (K x K)-OTC with cycles of length L (L = log N for the
 * standard machine) in O(log^2 N) time.
 *
 * L numbers enter through each of the K input ports, O(log N) apart.
 * The structure mirrors SORT-OTN with cycles playing the role of BPs:
 *
 *   1. ROOTTOCYCLE(row(i), dest=(all, A))            — A = group a_i
 *   2. CYCLETOCYCLE(col(i), src=(i, A), dst=(all,B)) — B = group a_j
 *   3. L rounds of compare-and-CIRCULATE accumulate, in C(q), the
 *      number of elements of group a_j smaller than A(q) (with the
 *      duplicate tie-break on global indices)
 *   4. SUM-CYCLETOCYCLE(row(i), src=(all, C), dst=(all, R)) — global
 *      ranks
 *   5. L pipelined output beats: at beat p, port j emits the value of
 *      rank p*K + j ("first the N/log N smallest numbers appear...")
 *
 * A, B and R are broadcasts and C a function of A and B, so the sort
 * keeps all four as shape-tagged vectors (see otc/network.hh) and
 * writes no register plane; each step moves its data at once and
 * then charges its per-tree primitives through their accounting
 * halves.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "otc/network.hh"

namespace ot::otc {

/** Result of one SORT-OTC run. */
struct SortOtcResult
{
    std::vector<std::uint64_t> sorted;
    ModelTime time = 0;
};

/**
 * Sort values.size() <= K * L numbers on `net` (K ports with L words
 * each; padded with kNull, which sorts last; duplicates allowed).
 */
SortOtcResult sortOtc(OtcNetwork &net,
                      const std::vector<std::uint64_t> &values);

} // namespace ot::otc
