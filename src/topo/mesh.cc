#include "topo/mesh.hh"

#include <algorithm>
#include <cassert>

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

namespace {

/** c[j] += a[j] * b[j] for j in [0, n), or c[j] |= a[j] & b[j]. */
void
macRow(std::uint64_t *c, const std::uint64_t *a, const std::uint64_t *b,
       std::size_t n, bool boolean)
{
    if (boolean) {
        // (x | -x) >> 63 is x != 0 without a compare, so the loop
        // vectorizes on the baseline instruction set.
        for (std::size_t j = 0; j < n; ++j) {
            const std::uint64_t x = a[j] & b[j];
            c[j] |= (x | (0 - x)) >> 63;
        }
    } else {
        for (std::size_t j = 0; j < n; ++j)
            c[j] += a[j] * b[j];
    }
}

linalg::IntMatrix
widen(const linalg::BoolMatrix &m)
{
    linalg::IntMatrix out(m.rows(), m.cols(), 0);
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j)
            out(i, j) = m(i, j) ? 1 : 0;
    return out;
}

} // namespace

linalg::IntMatrix
MeshMachine::cannon(const linalg::IntMatrix &a, const linalg::IntMatrix &b,
                    bool boolean)
{
    const std::size_t n = a.rows();
    assert(a.cols() == n && b.rows() == n && b.cols() == n);
    assert(n * n <= _grid.processors() && "mesh: operands exceed the grid");

    // Initial skew: row i of A rotated left by i, column j of B
    // rotated up by j — at most n-1 hops, done once.
    linalg::IntMatrix as(n, n), bs(n, n), c(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            as(i, j) = a(i, (j + i) % n);
            bs(i, j) = b((i + j) % n, j);
        }
    chargeRoute(n - 1);

    // After s rotations (A left, B up) PE(i, j) holds as(i, (j+s) mod n)
    // and bs((i+s) mod n, j).  The host indexes the skewed matrices
    // instead of moving them: B's operand row is one whole row, and
    // A's splits at column n - s where the index wraps.
    for (std::size_t step = 0; step < n; ++step) {
        const std::size_t split = n - step;
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t *crow = &c(i, 0);
            const std::uint64_t *arow = &as(i, 0);
            const std::uint64_t *brow = &bs((i + step) % n, 0);
            macRow(crow, arow + step, brow, split, boolean);
            macRow(crow + split, arow, brow + split, step, boolean);
        }
        // Multiply-accumulate plus one rotation hop of A and B.
        charge(cost().bitSerialMultiply());
        chargeRoute(1);
    }
    return c;
}

MatMulRun
MeshMachine::runMatMul(const linalg::IntMatrix &a, const linalg::IntMatrix &b)
{
    const ModelTime start = now();
    sim::ScopedPhase phase(_acct, "mesh-matmul");
    MatMulRun r;
    r.product = cannon(a, b, /*boolean=*/false);
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
    MatMulRun r;
    r.product = cannon(widen(a), widen(b), /*boolean=*/true);
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
    linalg::IntMatrix reach(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            reach(i, j) = (i == j || g.hasEdge(i, j)) ? 1 : 0;
    for (unsigned s = 0; s < vlsi::logCeilAtLeast1(n); ++s)
        reach = cannon(reach, reach, /*boolean=*/true);

    // Min-label pass: one systolic column sweep.
    std::vector<std::size_t> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t lab = i;
        for (std::size_t j = 0; j < n; ++j)
            if (reach(i, j))
                lab = std::min(lab, j);
        labels[i] = lab;
    }
    chargeRoute(n);

    CcRun r;
    r.labels = graph::canonicalizeLabels(labels);
    r.time = now() - start;
    r.area = _grid.metrics().area();
    return r;
}

} // namespace ot::topo
