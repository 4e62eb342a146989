/**
 * @file
 * Connected components on the OTN (Section III of the paper).
 *
 * The paper implements the Hirschberg-Chandra-Sarwate CONNECT
 * algorithm [12] on the adjacency matrix: the base holds A(i, j), each
 * vertex i keeps a component label D(i) on the diagonal, and each of
 * the O(log N) outer iterations
 *
 *   1. finds, per vertex, the minimum label among adjacent foreign
 *      components (row MIN over candidate labels),
 *   2. reduces those candidates per component (column MIN over the
 *      BPs at (i, D(i))) to give every root a hook target,
 *   3. removes the mutual (2-cycle) hooks that min-hooking can create
 *      — only 2-cycles are possible [12] — keeping the smaller label,
 *   4. relabels every vertex with its root's new label, and
 *   5. pointer-jumps D := D(D) log N times, collapsing every
 *      component tree to a star.
 *
 * Each step is O(log^2 N) tree operations and step 5 repeats log N
 * times, so one iteration is O(log^3 N) and the whole algorithm
 * O(log^4 N) — the Table III entry for the OTN/OTC.
 */

#pragma once

#include <vector>

#include "graph/graph.hh"
#include "otn/network.hh"

namespace ot::otn {

/** Result of a connected-components run. */
struct ComponentsResult
{
    /**
     * Component label per vertex in canonical form (smallest vertex id
     * in the component), directly comparable with
     * graph::connectedComponents.
     */
    std::vector<std::size_t> labels;
    /** Number of connected components found. */
    std::size_t componentCount = 0;
    /** Model time of the run (excluding adjacency load if uncharged). */
    ModelTime time = 0;
    /** Outer iterations executed. */
    unsigned iterations = 0;
};

/**
 * CONNECT step (2), candidate foreign labels: at every BP(i, j),
 * T := C if A == 1 and C != B, else kNull (B and C hold the labels of
 * vertices i and j).  One base step.  B must be RowConst and C
 * ColConst (the fan-outs of step 1); T is derived from A, B and C
 * (OrthogonalTreesNetwork::batchCandidates) and never written.
 */
ModelTime connectCandidatesOtn(OrthogonalTreesNetwork &net);

/**
 * Find the connected components of g on `net` (net.n() >= g.vertices()
 * after padding; padded vertices are isolated and ignored).
 *
 * @param charge_load  Whether feeding the adjacency matrix through the
 *                     row trees is charged to the clock.
 */
ComponentsResult connectedComponentsOtn(OrthogonalTreesNetwork &net,
                                        const graph::Graph &g,
                                        bool charge_load = true);

} // namespace ot::otn
