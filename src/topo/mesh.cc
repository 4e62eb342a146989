#include "topo/mesh.hh"

#include <algorithm>
#include <cassert>

#include "linalg/reference.hh"
#include "otn/registers.hh" // kNull
#include "vlsi/bitmath.hh"

namespace ot::topo {

using otn::kNull;

MeshMachine::MeshMachine(const MachineSpec &spec)
    : Machine(spec),
      _pe(spec.n, cost().word().bits()),
      _grid(spec.n * spec.n, cost().word().bits())
{
}

ModelTime
MeshMachine::hopCost() const
{
    // Word-parallel link (the mesh PE's Theta(log^2 N) area buys a
    // log N-wide port): one wire delay moves the whole word.  Both
    // grids share the pitch, hence the link.
    return cost().edgeDelay(_pe.linkLength()) + 1;
}

void
MeshMachine::chargeRoute(std::uint64_t hops)
{
    _acct.advance(hops * hopCost() + 1);
}

ModelTime
MeshMachine::exchangeStepCost(std::size_t dist) const
{
    // The Thompson-Kung routing: distance d is d hops within a row or
    // d / side hops across rows, there and back.
    const std::size_t hops = dist < side() ? dist : dist / side();
    return 2 * hops * hopCost() + cost().bitSerialOp();
}

ModelTime
MeshMachine::broadcastCost() const
{
    // Corner to corner: the mesh diameter on word-parallel links.
    return 2 * side() * hopCost();
}

ModelTime
MeshMachine::reduceCost() const
{
    return 2 * side() * hopCost() + cost().bitSerialOp();
}

SortRun
MeshMachine::runSort(const std::vector<std::uint64_t> &values)
{
    const std::size_t k = side();
    const std::size_t total = k * k;
    assert(values.size() <= total);

    const ModelTime start = now();
    sim::ScopedPhase phase(_acct, "mesh-sort");

    std::vector<std::uint64_t> a(total, kNull);
    std::copy(values.begin(), values.end(), a.begin());
    // Input load: one word per boundary port, streamed across the
    // mesh: K hops to fill.
    chargeRoute(k);

    for (std::size_t size = 2; size <= total; size <<= 1) {
        for (std::size_t d = size / 2; d >= 1; d >>= 1) {
            for (std::size_t l = 0; l < total; ++l) {
                std::size_t p = l ^ d;
                if (p <= l)
                    continue;
                bool ascending = (l & size) == 0;
                bool out_of_order = ascending ? (a[l] > a[p])
                                              : (a[l] < a[p]);
                if (out_of_order)
                    std::swap(a[l], a[p]);
            }
            // Partners are d columns apart (d < K) or d/K rows apart:
            // that many nearest-neighbour routing hops each way.
            std::uint64_t hops = d < k ? d : d / k;
            chargeRoute(2 * hops);
        }
    }

    SortRun r;
    r.sorted.assign(a.begin(), a.begin() + static_cast<long>(values.size()));
    r.time = now() - start;
    return r;
}

void
MeshMachine::chargeCannon(std::size_t n)
{
    // Initial skew (at most n-1 hops, done once), then per step one
    // multiply-accumulate plus one rotation hop of A and B.
    chargeRoute(n - 1);
    for (std::size_t step = 0; step < n; ++step) {
        charge(cost().bitSerialMultiply());
        chargeRoute(1);
    }
}

linalg::IntMatrix
MeshMachine::cannon(const linalg::IntMatrix &a, const linalg::IntMatrix &b)
{
    const std::size_t n = a.rows();
    assert(a.cols() == n && b.rows() == n && b.cols() == n);
    assert(n * n <= _grid.processors() && "mesh: operands exceed the grid");

    // PE(i, j) sums a(i, k) * b(k, j) over the n steps, k in rotation
    // order; the sum is modular, so its order does not matter and the
    // host takes the reference product instead of skewing copies.
    linalg::IntMatrix c = linalg::matMul(a, b);
    chargeCannon(n);
    return c;
}

linalg::BitMatrix
MeshMachine::boolCannon(const linalg::BitMatrix &a, const linalg::BitMatrix &b)
{
    const std::size_t n = a.rows();
    assert(a.cols() == n && b.rows() == n && b.cols() == n);
    assert(n * n <= _grid.processors() && "mesh: operands exceed the grid");

    // PE(i, j) ORs a(i, k) & b(k, j) over the n steps, k in rotation
    // order; OR is order-free, so the host ORs packed rows of B instead.
    linalg::BitMatrix c = linalg::BitMatrix::product(a, b);
    chargeCannon(n);
    return c;
}

MatMulRun
MeshMachine::runMatMul(const linalg::IntMatrix &a, const linalg::IntMatrix &b)
{
    const ModelTime start = now();
    sim::ScopedPhase phase(_acct, "mesh-matmul");
    MatMulRun r;
    r.product = cannon(a, b);
    r.time = now() - start;
    r.area = _grid.metrics().area();
    return r;
}

MatMulRun
MeshMachine::runBoolMatMul(const linalg::BoolMatrix &a,
                           const linalg::BoolMatrix &b)
{
    const ModelTime start = now();
    sim::ScopedPhase phase(_acct, "mesh-bool-matmul");
    const linalg::BitMatrix c =
        boolCannon(linalg::BitMatrix(a), linalg::BitMatrix(b));
    MatMulRun r;
    r.product = linalg::IntMatrix(c.rows(), c.cols());
    for (std::size_t i = 0; i < c.rows(); ++i)
        c.unpackRow(i, r.product.rowData(i));
    r.time = now() - start;
    r.area = _grid.metrics().area();
    return r;
}

CcRun
MeshMachine::runConnectedComponents(const graph::Graph &g)
{
    const std::size_t n = g.vertices();
    const ModelTime start = now();
    sim::ScopedPhase phase(_acct, "mesh-cc");

    // reach := (A + I)^(2^ceil(log n)) by repeated Boolean squaring on
    // the Cannon grid.
    linalg::BitMatrix reach(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            if (i == j || g.hasEdge(i, j))
                reach.set(i, j);
    for (unsigned s = 0; s < vlsi::logCeilAtLeast1(n); ++s)
        reach = boolCannon(reach, reach);

    // Min-label pass: one systolic column sweep.  reach(i, i) is set,
    // so row i's first set bit is its smallest reachable vertex.
    std::vector<std::size_t> labels(n);
    for (std::size_t i = 0; i < n; ++i)
        labels[i] = reach.firstSet(i);
    chargeRoute(n);

    CcRun r;
    r.labels = graph::canonicalizeLabels(labels);
    r.time = now() - start;
    r.area = _grid.metrics().area();
    return r;
}

} // namespace ot::topo
