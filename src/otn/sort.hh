/**
 * @file
 * Procedure SORT-OTN (Section II-B of the paper): sorting N numbers on
 * an (N x N)-OTN in O(log^2 N) time by rank computation.
 *
 * The numbers enter at the input ports (row-tree roots) and leave in
 * ascending order at the output ports (column-tree roots).  The
 * algorithm is exactly the paper's five steps:
 *
 *   1. ROOTTOLEAF(row(i), dest=(all, A))           — A(i,j) = x(i)
 *   2. LEAFTOLEAF(col(i), src=(i, A), dst=(all,B)) — B(i,j) = x(j)
 *   3. flag(i,j) = A > B, with the paper's tie-break for duplicates:
 *      A == B and i > j                            — stable ranking
 *   4. COUNT-LEAFTOLEAF(row(i), dest=(all, R))     — R = rank of x(i)
 *   5. LEAFTOROOT(col(i), src=(j: R(j,i) = i, A))  — port i gets the
 *      i-th smallest
 */

#pragma once

#include <cstdint>
#include <vector>

#include "otn/network.hh"

namespace ot::otn {

/** Result of one SORT-OTN run. */
struct SortResult
{
    /** The values in ascending order (as read from the output ports). */
    std::vector<std::uint64_t> sorted;
    /** Model time the run took. */
    ModelTime time = 0;
};

/**
 * Run SORT-OTN on `values` (values.size() <= net.n(); duplicates
 * allowed — the tie-break variant of step 3 is always used).  Missing
 * inputs are treated as absent ports; outputs are the sorted values.
 */
SortResult sortOtn(OrthogonalTreesNetwork &net,
                   const std::vector<std::uint64_t> &values);

} // namespace ot::otn
