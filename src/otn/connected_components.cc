#include "otn/connected_components.hh"

#include <algorithm>

#include "graph/reference_algorithms.hh"
#include "otn/patterns.hh"
#include "vlsi/bitmath.hh"

namespace ot::otn {

namespace {

/*
 * Register allocation for CONNECT on the OTN:
 *   A  adjacency bits
 *   D  vertex label, authoritative copy on the diagonal
 *   B  D fanned out along rows        (B(i,j) = D(i))
 *   C  D fanned out down columns      (C(i,j) = D(j))
 *   T  candidate foreign labels: derived from A, B and C (Candidate),
 *      never written
 *   E  per-vertex best candidate, fanned out along rows
 *   H  per-component hook target, fanned out down columns
 *   G  new component label (newC) on the diagonal
 *   X  gather keys / scratch broadcasts
 *   R  gather values / scratch broadcasts
 *   Y  gather outputs
 *   F  gatherAtIndex scratch flag
 */

void
loadAdjacency(OrthogonalTreesNetwork &net, const graph::Graph &g,
              bool charged)
{
    // Adjacency entries are single bits: unit pipeline separation.  The
    // padding loads as kNull, which marks no edge, as 0 does.
    net.loadBase(Reg::A, g.adjacency(), charged, /*separation=*/1);
}

} // namespace

ModelTime
connectCandidatesOtn(OrthogonalTreesNetwork &net)
{
    return net.batchCandidates({simd::CandidateRule::Kind::Label}, Reg::A,
                               Reg::B, Reg::C, Reg::T);
}

ComponentsResult
connectedComponentsOtn(OrthogonalTreesNetwork &net, const graph::Graph &g,
                       bool charge_load)
{
    const std::size_t n = net.n();
    assert(g.vertices() <= n);
    const unsigned log_n = vlsi::logCeilAtLeast1(n);

    ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(), "connected-components-otn");

    loadAdjacency(net, g, charge_load);

    // Pure reads go through the const accessor, which resolves the
    // broadcast planes' shapes instead of materializing them.
    const OrthogonalTreesNetwork &view = net;

    // D(i) := i on the diagonal.
    net.baseOpDiag(net.cost().bitSerialOp(),
                   [&](std::size_t i) { net.reg(Reg::D, i, i) = i; });

    const unsigned iterations = log_n + 1;
    for (unsigned iter = 0; iter < iterations; ++iter) {
        // (1) Fan the labels out: B(i,j) = D(i), C(i,j) = D(j).
        diagToRows(net, Reg::D, Reg::B);
        diagToCols(net, Reg::D, Reg::C);

        // (2) Candidate foreign labels.
        connectCandidatesOtn(net);

        // (3) Per-vertex minimum candidate, fanned back along the row:
        // for each row i pardo, minLeafToRoot(Row, i, all, T) then
        // rootToLeaf(Row, i, all, E).
        net.batchMinRowsToLeaves(Reg::T, Sel::all(), Reg::E);

        // (4) Per-component minimum over the members' candidates; each
        // vertex i deposits its candidate at BP(i, D(i)), and column
        // D(i)'s tree reduces.  The result is fanned back down the
        // column and latched on the diagonal as newC.
        // Membership test along column j: B(i, j) == j.  For each
        // col j pardo, minLeafToRoot(Col, j, regEq(B, j), E) then
        // rootToLeaf(Col, j, all, H).
        net.batchMinColsByKeyIndexToLeaves(Reg::B, Reg::E, Sel::all(),
                                           Reg::H);
        net.baseOpDiag(net.cost().bitSerialOp(), [&](std::size_t j) {
            std::uint64_t h = view.reg(Reg::H, j, j);
            net.reg(Reg::G, j, j) = h == kNull ? j : h;
        });

        // (5) Remove mutual hooks (the only cycles min-hooking can
        // create are 2-cycles [12]): of a pair hooking to each other,
        // the smaller label stays a root.
        diagToRows(net, Reg::G, Reg::X);
        diagToCols(net, Reg::G, Reg::R);
        gatherAtIndex(net, Reg::X, Reg::R, Reg::Y, Reg::F);
        net.baseOpDiag(net.cost().bitSerialOp(), [&](std::size_t j) {
            std::uint64_t new_c = view.reg(Reg::G, j, j);
            std::uint64_t back = view.reg(Reg::Y, j, j);
            if (back == j && new_c != j && j < new_c)
                net.reg(Reg::G, j, j) = j;
        });

        // (6) Relabel every vertex with its root's new label:
        // D(i) := newC(D(i)).
        diagToCols(net, Reg::G, Reg::R);
        gatherAtIndex(net, Reg::B, Reg::R, Reg::Y, Reg::F);
        net.baseOpDiag(net.cost().bitSerialOp(), [&](std::size_t i) {
            net.reg(Reg::D, i, i) = view.reg(Reg::Y, i, i);
        });

        // (7) Pointer jumping to a star: D := D(D), log N times.
        for (unsigned jump = 0; jump < log_n; ++jump) {
            diagToRows(net, Reg::D, Reg::B);
            diagToCols(net, Reg::D, Reg::C);
            gatherAtIndex(net, Reg::B, Reg::C, Reg::Y, Reg::F);
            net.baseOpDiag(net.cost().bitSerialOp(), [&](std::size_t i) {
                net.reg(Reg::D, i, i) = view.reg(Reg::Y, i, i);
            });
        }
    }

    ComponentsResult result;
    result.iterations = iterations;
    std::vector<std::size_t> raw(g.vertices());
    for (std::size_t v = 0; v < g.vertices(); ++v)
        raw[v] = static_cast<std::size_t>(view.reg(Reg::D, v, v));
    result.labels = graph::canonicalizeLabels(raw);

    std::vector<std::size_t> distinct = result.labels;
    std::sort(distinct.begin(), distinct.end());
    result.componentCount = static_cast<std::size_t>(
        std::unique(distinct.begin(), distinct.end()) - distinct.begin());

    result.time = net.now() - start;
    return result;
}

} // namespace ot::otn
