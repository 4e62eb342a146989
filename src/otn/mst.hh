/**
 * @file
 * Minimum spanning tree on the OTN (Section III of the paper;
 * abstract: O(log^4 N) time, AT^2 = O(N^2 log^9 N) on the OTC).
 *
 * The algorithm is Sollin/Boruvka on the weight matrix, with the same
 * hook-and-jump skeleton as connected components: each component finds
 * its minimum-weight outgoing edge by a row MIN (per vertex) followed
 * by a column MIN (per component) over packed (weight, u, v) words,
 * adopts that edge into the spanning forest, hooks onto the component
 * at the edge's far end, and pointer-jumps to a star.  With distinct
 * weights only mutual (2-cycle) hooks can occur, resolved by keeping
 * the smaller label — exactly Boruvka's classic argument.
 *
 * Edge words pack (w, u, v) into one machine word, so the OTN built
 * for MST needs wider words than the sorter — the extra log N factor
 * the paper notes in the MST AT^2 bound.  Use mstWordFormat() to size
 * the machine.
 */

#pragma once

#include <vector>

#include "graph/graph.hh"
#include "graph/reference_algorithms.hh"
#include "otn/network.hh"
#include "vlsi/word.hh"

namespace ot::otn {

/** Result of an MST run. */
struct MstResult
{
    /** Edges of the minimum spanning forest, sorted by (w, u, v). */
    std::vector<graph::Edge> edges;
    /** Sum of edge weights. */
    std::uint64_t totalWeight = 0;
    /** Model time of the run. */
    ModelTime time = 0;
    /** Boruvka phases executed. */
    unsigned iterations = 0;
};

/**
 * Word format wide enough to carry packed (weight, u, v) edge words
 * for an n-vertex graph with weights <= max_weight.
 */
vlsi::WordFormat mstWordFormat(std::size_t n, std::uint64_t max_weight);

/**
 * Boruvka's candidate step: at every BP(i, j), T := the edge (i, j)
 * packed (w, i, j) with idx_bits-bit indices if its weight A is not
 * kNull and its endpoints' labels B and C differ, else kNull.  One
 * base step.  B must be RowConst and C ColConst (the label fan-outs);
 * T is derived from A, B and C
 * (OrthogonalTreesNetwork::batchCandidates) and never written.
 */
ModelTime mstCandidatesOtn(OrthogonalTreesNetwork &net, unsigned idx_bits);

/**
 * Compute the minimum spanning forest of g on `net`.  Weights must be
 * distinct (generators::randomWeighted* guarantee this); the machine
 * word must fit the packed edge keys (build the net with
 * mstWordFormat).
 */
MstResult mstOtn(OrthogonalTreesNetwork &net, const graph::WeightedGraph &g,
                 bool charge_load = true);

} // namespace ot::otn
