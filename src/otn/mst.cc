#include "otn/mst.hh"

#include <algorithm>
#include <set>

#include "otn/patterns.hh"
#include "vlsi/bitmath.hh"

namespace ot::otn {

namespace {

/*
 * Register allocation (mirrors connected_components.cc):
 *   A  edge weights (kNull = no edge)
 *   D  component label on the diagonal
 *   B  D along rows, C  D down columns
 *   T  packed candidate edges: derived from A, B and C (Candidate),
 *      never written
 *   E  per-vertex best edge along rows
 *   H  per-component best edge on the diagonal, then the hook key
 *   G  newC on the diagonal;  X/R/Y/F gather scratch
 */

using simd::packEdge;

std::uint64_t
packedV(std::uint64_t packed, unsigned idx_bits)
{
    return packed & ((std::uint64_t{1} << idx_bits) - 1);
}

std::uint64_t
packedU(std::uint64_t packed, unsigned idx_bits)
{
    return (packed >> idx_bits) & ((std::uint64_t{1} << idx_bits) - 1);
}

std::uint64_t
packedW(std::uint64_t packed, unsigned idx_bits)
{
    return packed >> (2 * idx_bits);
}

} // namespace

vlsi::WordFormat
mstWordFormat(std::size_t n, std::uint64_t max_weight)
{
    unsigned idx_bits = vlsi::logCeilAtLeast1(vlsi::nextPow2(n ? n : 1));
    unsigned w_bits = vlsi::logCeilAtLeast1(max_weight + 1) + 1;
    // One spare bit keeps every packed word strictly below kNull.
    return vlsi::WordFormat(2 * idx_bits + w_bits + 1);
}

ModelTime
mstCandidatesOtn(OrthogonalTreesNetwork &net, unsigned idx_bits)
{
    return net.batchCandidates(
        {simd::CandidateRule::Kind::Edge, static_cast<std::uint8_t>(idx_bits)},
        Reg::A, Reg::B, Reg::C, Reg::T);
}

MstResult
mstOtn(OrthogonalTreesNetwork &net, const graph::WeightedGraph &g,
       bool charge_load)
{
    const std::size_t n = net.n();
    assert(g.vertices() <= n);
    const unsigned log_n = vlsi::logCeilAtLeast1(n);
    const unsigned idx_bits = log_n;

    ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(), "mst-otn");

    // Load the weight matrix (kNull marks absent edges), checking
    // that each edge's packed form fits the machine word.
    for (std::size_t i = 0; i < g.vertices(); ++i)
        for (std::size_t j = 0; j < g.vertices(); ++j)
            assert(!g.hasEdge(i, j) ||
                   net.fitsWord(packEdge(g.weight(i, j), i, j, idx_bits)));
    net.loadBaseAbsent(Reg::A, g.weights(), graph::kNoEdge, charge_load);

    // Pure reads go through the const accessor, which resolves the
    // broadcast planes' shapes instead of materializing them.
    const OrthogonalTreesNetwork &view = net;

    net.baseOpDiag(net.cost().bitSerialOp(),
                   [&](std::size_t i) { net.reg(Reg::D, i, i) = i; });

    std::set<std::pair<std::size_t, std::size_t>> chosen;
    const unsigned iterations = log_n + 1;

    for (unsigned iter = 0; iter < iterations; ++iter) {
        diagToRows(net, Reg::D, Reg::B);
        diagToCols(net, Reg::D, Reg::C);

        // Candidate outgoing edges, packed (w, u, v).
        mstCandidatesOtn(net, idx_bits);

        // Per-vertex minimum edge, fanned along the row: for each row
        // i pardo, minLeafToRoot(Row, i, all, T) then
        // rootToLeaf(Row, i, all, E).
        net.batchMinRowsToLeaves(Reg::T, Sel::all(), Reg::E);

        // Per-component minimum edge (members have B(i, j) == j),
        // latched on the diagonal: for each col j pardo,
        // minLeafToRoot(Col, j, regEq(B, j), E) then
        // rootToLeaf(Col, j, diag, H).
        net.batchMinColsByKeyIndexToLeaves(Reg::B, Reg::E, Sel::diag(),
                                           Reg::H);

        // Record chosen edges (the roots output them) and derive the
        // hook key, the far endpoint v of the chosen edge, in place on
        // H's diagonal (Dense: the reduction above wrote it).
        net.baseOpDiag(net.cost().bitSerialOp(), [&](std::size_t i) {
            std::uint64_t &best = net.reg(Reg::H, i, i);
            if (best == kNull)
                return;
            auto u = packedU(best, idx_bits);
            auto v = packedV(best, idx_bits);
            assert(packedW(best, idx_bits) == g.weight(u, v));
            chosen.insert({std::min(u, v), std::max(u, v)});
            best = v;
        });

        // newC(r) = D(v): label of the component at the far end.
        diagToRows(net, Reg::H, Reg::X); // fan the key along rows
        gatherAtIndex(net, Reg::X, Reg::C, Reg::Y, Reg::F);
        net.baseOpDiag(net.cost().bitSerialOp(), [&](std::size_t j) {
            std::uint64_t target = view.reg(Reg::Y, j, j);
            net.reg(Reg::G, j, j) = target == kNull ? j : target;
        });

        // 2-cycle fix: mutual hooks keep the smaller label.
        diagToRows(net, Reg::G, Reg::X);
        diagToCols(net, Reg::G, Reg::R);
        gatherAtIndex(net, Reg::X, Reg::R, Reg::Y, Reg::F);
        net.baseOpDiag(net.cost().bitSerialOp(), [&](std::size_t j) {
            std::uint64_t new_c = view.reg(Reg::G, j, j);
            std::uint64_t back = view.reg(Reg::Y, j, j);
            if (back == j && new_c != j && j < new_c)
                net.reg(Reg::G, j, j) = j;
        });

        // Relabel all vertices: D(i) := newC(D(i)).
        diagToCols(net, Reg::G, Reg::R);
        gatherAtIndex(net, Reg::B, Reg::R, Reg::Y, Reg::F);
        net.baseOpDiag(net.cost().bitSerialOp(), [&](std::size_t i) {
            net.reg(Reg::D, i, i) = view.reg(Reg::Y, i, i);
        });

        // Pointer jumping to a star.
        for (unsigned jump = 0; jump < log_n; ++jump) {
            diagToRows(net, Reg::D, Reg::B);
            diagToCols(net, Reg::D, Reg::C);
            gatherAtIndex(net, Reg::B, Reg::C, Reg::Y, Reg::F);
            net.baseOpDiag(net.cost().bitSerialOp(), [&](std::size_t i) {
                net.reg(Reg::D, i, i) = view.reg(Reg::Y, i, i);
            });
        }
    }

    MstResult result;
    result.iterations = iterations;
    for (auto [u, v] : chosen)
        result.edges.push_back({u, v, g.weight(u, v)});
    std::sort(result.edges.begin(), result.edges.end(),
              [](const graph::Edge &a, const graph::Edge &b) {
                  return std::tie(a.w, a.u, a.v) <
                         std::tie(b.w, b.u, b.v);
              });
    result.totalWeight = graph::totalWeight(result.edges);
    result.time = net.now() - start;
    return result;
}

} // namespace ot::otn
