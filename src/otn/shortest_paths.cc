#include "otn/shortest_paths.hh"

#include <algorithm>
#include <cassert>

#include "vlsi/bitmath.hh"

namespace ot::otn {

using graph::kUnreachable;

namespace {

/**
 * One (min, +) vector-matrix step with the vector at the row roots and
 * the weights in Reg::A: fan d(k) along row k, relax in the base with
 * the saturating add (kUnreachable absorbs), and take each column's
 * minimum at its root.
 */
void
relaxRound(OrthogonalTreesNetwork &net)
{
    static_assert(kUnreachable == kNull,
                  "addSatRow's absent word is the unreachable distance");
    // For each row k pardo: rootToLeaf(Row, k, all, B).
    net.batchRowBroadcast(Reg::B);
    net.baseOpRows(net.cost().bitSerialOp(), net.kernelTable().addSatRow,
                   Reg::B, Reg::A, Reg::C);
    // For each col j pardo: minLeafToRoot(Col, j, all, C).
    net.batchColMin(Reg::C);
}

/** Load the weight matrix (kUnreachable off-diagonal, 0 diagonal). */
void
loadWeights(OrthogonalTreesNetwork &net, const graph::WeightedGraph &g,
            Reg dest, bool charged)
{
    const std::size_t n = net.n();
    linalg::IntMatrix w(n, n, kUnreachable);
    for (std::size_t i = 0; i < g.vertices(); ++i) {
        w(i, i) = 0;
        for (std::size_t j = 0; j < g.vertices(); ++j)
            if (g.hasEdge(i, j))
                w(i, j) = g.weight(i, j);
    }
    for (std::size_t i = g.vertices(); i < n; ++i)
        w(i, i) = 0;
    net.loadBase(dest, w, charged);
}

} // namespace

vlsi::WordFormat
pathWordFormat(std::size_t n, std::uint64_t max_weight)
{
    // A shortest path has < n edges of weight <= max_weight.
    std::uint64_t bound = (n ? n : 1) * (max_weight ? max_weight : 1);
    return vlsi::WordFormat(vlsi::logCeilAtLeast1(bound + 1) + 2);
}

SsspResult
ssspOtn(OrthogonalTreesNetwork &net, const graph::WeightedGraph &g,
        std::size_t src, bool charge_load)
{
    const std::size_t n = net.n();
    const std::size_t v = g.vertices();
    assert(src < v && v <= n);

    ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(), "sssp-otn");

    loadWeights(net, g, Reg::A, charge_load);

    // Current distances live at the row roots (vertex k's estimate at
    // input port k).
    std::vector<std::uint64_t> dist(n, kUnreachable);
    dist[src] = 0;

    SsspResult result;
    for (std::size_t round = 0; round + 1 < v; ++round) {
        net.setRowRootInputs(dist);

        relaxRound(net);
        ++result.rounds;

        // Convergence: compare at the ports; an OR (COUNT) reduction
        // across one row tree tells the host whether anything moved.
        bool changed = false;
        for (std::size_t j = 0; j < n; ++j) {
            std::uint64_t cand = net.colRoot(j);
            if (cand < dist[j]) {
                dist[j] = cand;
                changed = true;
            }
        }
        net.charge(net.treeReduceCost());
        if (!changed)
            break;
    }

    result.dist.assign(dist.begin(), dist.begin() + static_cast<long>(v));
    result.time = net.now() - start;
    return result;
}

ApspResult
apspOtn(OrthogonalTreesNetwork &net, const graph::WeightedGraph &g)
{
    const std::size_t n = net.n();
    const std::size_t v = g.vertices();
    assert(v <= n);

    ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(), "apsp-otn");

    // D := W (with zero diagonal); squarings: D := D (min,+) D.
    linalg::IntMatrix d(n, n, kUnreachable);
    for (std::size_t i = 0; i < n; ++i)
        d(i, i) = 0;
    for (std::size_t i = 0; i < v; ++i)
        for (std::size_t j = 0; j < v; ++j)
            if (g.hasEdge(i, j))
                d(i, j) = g.weight(i, j);

    ApspResult result;
    const unsigned rounds = vlsi::logCeilAtLeast1(v);
    for (unsigned s = 0; s < rounds; ++s) {
        // One pipelined (min, +) product D * D, Section III-A style:
        // the matrix resident in the base, rows of D streamed through
        // the row roots one word-separation apart.
        net.loadBase(Reg::A, d, /*charged=*/s == 0);
        ModelTime first_row = 0;
        linalg::IntMatrix next(n, n, kUnreachable);
        for (std::size_t i = 0; i < n; ++i) {
            auto row_body = [&] {
                net.setRowRootInputs(d.row(i));
                relaxRound(net);
            };
            if (i == 0) {
                ModelTime t0 = net.now();
                row_body();
                first_row = net.now() - t0;
            } else {
                net.runUncharged(row_body);
                net.charge(net.cost().wordSeparation());
            }
            for (std::size_t j = 0; j < n; ++j)
                next(i, j) = net.colRoot(j);
        }
        (void)first_row;
        d = std::move(next);
        ++result.squarings;
    }

    result.dist = linalg::IntMatrix(v, v, kUnreachable);
    for (std::size_t i = 0; i < v; ++i)
        for (std::size_t j = 0; j < v; ++j)
            result.dist(i, j) = d(i, j);
    result.time = net.now() - start;
    return result;
}

} // namespace ot::otn
