/**
 * @file
 * Generic algorithm fallbacks over the primitive accounting hooks.
 *
 * Every implementation below charges model time *only* through the
 * machine's exchange/broadcast/reduce primitives and the cost model's
 * bit-serial operation costs, so a new topology gets the whole
 * algorithm vocabulary for free the moment it can price those three
 * primitives.  The functional results are computed host-side (the
 * machines model time, not data movement), deterministically:
 *
 *  - sort:  Batcher's bitonic network, one exchangeStepCost(d) per
 *           parallel compare-exchange sweep (log^2 N sweeps);
 *  - matmul: N broadcast rounds (row of A per round), one
 *           multiply-accumulate per node per round;
 *  - cc:    min-label propagation to fixpoint, one reduce + one
 *           broadcast per round (labels converge to the smallest
 *           vertex id of the component, the reference convention);
 *  - mst:   Boruvka phases — with distinct weights the forest is the
 *           unique MSF, so the edge set equals Kruskal's;
 *  - sssp:  Bellman-Ford rounds to fixpoint.
 */

#include "topo/machine.hh"

#include <algorithm>
#include <cassert>
#include <tuple>
#include <utility>

#include "linalg/bit_matrix.hh"
#include "linalg/reference.hh"
#include "vlsi/bitmath.hh"

namespace ot::topo {

std::string
toString(const MachineSpec &spec)
{
    std::string out = spec.topo + ":n=" + std::to_string(spec.n);
    if (spec.cycleLen)
        out += ":l=" + std::to_string(spec.cycleLen);
    out += ":" + shortName(spec.model);
    out += ":w=" + std::to_string(spec.wordBits);
    if (spec.scaled)
        out += ":scaled";
    return out;
}

SortRun
Machine::runSort(const std::vector<std::uint64_t> &values)
{
    const std::size_t m = values.size();
    assert(vlsi::isPow2(m) && "generic sort: size must be a power of two");

    SortRun r;
    r.sorted = values;
    const ModelTime t0 = now();

    // Batcher's bitonic network: each (k, j) pass is one parallel
    // sweep exchanging all pairs (i, i xor j) — one machine step.
    for (std::size_t k = 2; k <= m; k <<= 1) {
        for (std::size_t j = k >> 1; j > 0; j >>= 1) {
            for (std::size_t i = 0; i < m; ++i) {
                const std::size_t partner = i ^ j;
                if (partner <= i)
                    continue;
                const bool ascending = (i & k) == 0;
                if ((r.sorted[i] > r.sorted[partner]) == ascending)
                    std::swap(r.sorted[i], r.sorted[partner]);
            }
            charge(exchangeStepCost(j));
        }
    }
    r.time = now() - t0;
    return r;
}

MatMulRun
Machine::runMatMul(const linalg::IntMatrix &a, const linalg::IntMatrix &b)
{
    const std::size_t m = a.rows();
    assert(b.rows() == m && a.cols() == m && b.cols() == m &&
           "generic matmul: square operands only");

    MatMulRun r;
    const ModelTime t0 = now();

    // Round k streams operand slice k to every node (one broadcast)
    // and accumulates c(i, j) += a(i, k) * b(k, j) everywhere.  The
    // sum is modular, so the host takes the reference product (one
    // i-k-j pass) and then charges the m rounds in order.
    r.product = linalg::matMul(a, b);
    for (std::size_t k = 0; k < m; ++k)
        charge(broadcastCost() + cost().bitSerialMultiply() +
               cost().bitSerialOp());
    r.time = now() - t0;
    return r;
}

MatMulRun
Machine::runBoolMatMul(const linalg::BoolMatrix &a,
                       const linalg::BoolMatrix &b)
{
    const std::size_t m = a.rows();
    assert(b.rows() == m && a.cols() == m && b.cols() == m &&
           "generic boolmm: square operands only");

    MatMulRun r;
    r.product = linalg::IntMatrix(m, m, 0);
    const ModelTime t0 = now();

    // Same broadcast rounds as the integer product; the per-node work
    // is a single-gate AND/OR, priced as one bit-serial op.  The host
    // computes the product on rows packed 64 columns to a word.
    const linalg::BitMatrix packed =
        linalg::BitMatrix::product(linalg::BitMatrix(a), linalg::BitMatrix(b));
    for (std::size_t k = 0; k < m; ++k)
        charge(broadcastCost() + cost().bitSerialOp());
    for (std::size_t i = 0; i < m; ++i)
        packed.unpackRow(i, r.product.rowData(i));
    r.time = now() - t0;
    return r;
}

CcRun
Machine::runConnectedComponents(const graph::Graph &g)
{
    const std::size_t m = g.vertices();
    CcRun r;
    r.labels.resize(m);
    for (std::size_t v = 0; v < m; ++v)
        r.labels[v] = v;
    const ModelTime t0 = now();

    // Min-label propagation: every round each vertex min-reduces its
    // neighbours' labels (one combining traversal) and the survivors
    // are redistributed (one broadcast).  Converges within the
    // diameter to label[v] = smallest vertex of v's component.
    bool changed = true;
    while (changed) {
        changed = false;
        std::vector<std::size_t> next = r.labels;
        for (std::size_t u = 0; u < m; ++u)
            for (std::size_t v = u + 1; v < m; ++v)
                if (g.hasEdge(u, v)) {
                    if (r.labels[v] < next[u])
                        next[u] = r.labels[v];
                    if (r.labels[u] < next[v])
                        next[v] = r.labels[u];
                }
        changed = next != r.labels;
        r.labels = std::move(next);
        charge(reduceCost() + broadcastCost() + cost().bitSerialOp());
    }
    r.time = now() - t0;
    return r;
}

MstRun
Machine::runMst(const graph::WeightedGraph &g)
{
    const std::size_t m = g.vertices();
    std::vector<std::size_t> comp(m);
    for (std::size_t v = 0; v < m; ++v)
        comp[v] = v;
    MstRun r;
    const ModelTime t0 = now();

    // Boruvka: each phase every component min-reduces its cheapest
    // outgoing edge (two combining traversals: per-vertex candidates,
    // then per-component minimum) and merged labels are rebroadcast.
    // Distinct weights make the chosen forest the unique MSF.
    bool merged = true;
    while (merged) {
        merged = false;
        ++r.phases;
        // comp -> (w, u, v) of the cheapest outgoing edge.
        std::vector<bool> has(m, false);
        std::vector<graph::Edge> best(m);
        for (std::size_t u = 0; u < m; ++u)
            for (std::size_t v = u + 1; v < m; ++v) {
                if (!g.hasEdge(u, v) || comp[u] == comp[v])
                    continue;
                const std::uint64_t w = g.weight(u, v);
                for (std::size_t c : {comp[u], comp[v]}) {
                    if (!has[c] || w < best[c].w) {
                        has[c] = true;
                        best[c] = {u, v, w};
                    }
                }
            }
        charge(2 * reduceCost() + broadcastCost() + cost().bitSerialOp());
        for (std::size_t c = 0; c < m; ++c) {
            if (!has[c])
                continue;
            const graph::Edge &e = best[c];
            if (comp[e.u] == comp[e.v])
                continue; // merged earlier this phase
            r.edges.push_back(e);
            const std::size_t from = comp[e.v], to = comp[e.u];
            for (std::size_t v = 0; v < m; ++v)
                if (comp[v] == from)
                    comp[v] = to;
            merged = true;
        }
    }
    std::sort(r.edges.begin(), r.edges.end(),
              [](const graph::Edge &a, const graph::Edge &b) {
                  return std::tie(a.w, a.u, a.v) < std::tie(b.w, b.u, b.v);
              });
    r.time = now() - t0;
    return r;
}

SsspRun
Machine::runShortestPaths(const graph::WeightedGraph &g, std::size_t src)
{
    const std::size_t m = g.vertices();
    assert(src < m && "generic sssp: source out of range");
    SsspRun r;
    r.dist.assign(m, graph::kUnreachable);
    r.dist[src] = 0;
    const ModelTime t0 = now();

    // Bellman-Ford to fixpoint: one relaxation wave per round (a
    // broadcast of the frontier and a per-vertex min-reduce), at most
    // N - 1 rounds plus the convergence check.
    bool changed = true;
    while (changed) {
        changed = false;
        ++r.rounds;
        std::vector<std::uint64_t> next = r.dist;
        for (std::size_t u = 0; u < m; ++u) {
            if (r.dist[u] == graph::kUnreachable)
                continue;
            for (std::size_t v = 0; v < m; ++v) {
                if (!g.hasEdge(u, v))
                    continue;
                const std::uint64_t cand = r.dist[u] + g.weight(u, v);
                if (cand < next[v])
                    next[v] = cand;
            }
        }
        changed = next != r.dist;
        r.dist = std::move(next);
        charge(broadcastCost() + reduceCost() + cost().bitSerialOp());
    }
    r.time = now() - t0;
    return r;
}

} // namespace ot::topo
