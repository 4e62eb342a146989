#include "baselines/mesh.hh"

#include <algorithm>
#include <cassert>

#include "graph/reference_algorithms.hh"
#include "linalg/reference.hh"
#include "otn/registers.hh" // kNull
#include "vlsi/bitmath.hh"

namespace ot::baselines {

using otn::kNull;

MeshMachine::MeshMachine(std::size_t processors, const CostModel &cost)
    : _cost(cost), _layout(processors, cost.word().bits())
{
}

ModelTime
MeshMachine::hopCost() const
{
    // Word-parallel link (the mesh PE's Theta(log^2 N) area buys a
    // log N-wide port): one wire delay moves the whole word.
    return _cost.edgeDelay(_layout.linkLength()) + 1;
}

void
MeshMachine::chargeRoute(std::uint64_t hops)
{
    _acct.advance(hops * hopCost() + 1);
}

MeshSortResult
meshSort(MeshMachine &mesh, const std::vector<std::uint64_t> &values)
{
    const std::size_t k = mesh.side();
    const std::size_t total = k * k;
    assert(values.size() <= total);

    ModelTime start = mesh.now();
    sim::ScopedPhase phase(mesh.acct(), "mesh-sort");

    std::vector<std::uint64_t> a(total, kNull);
    std::copy(values.begin(), values.end(), a.begin());
    // Input load: one word per boundary port, streamed across the
    // mesh: K hops to fill.
    mesh.chargeRoute(k);

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
            mesh.chargeRoute(2 * hops);
        }
    }

    MeshSortResult result;
    result.sorted.assign(a.begin(),
                         a.begin() + static_cast<long>(values.size()));
    result.time = mesh.now() - start;
    return result;
}

MeshSortResult
meshOddEvenSort(MeshMachine &mesh, const std::vector<std::uint64_t> &values)
{
    const std::size_t k = mesh.side();
    const std::size_t total = k * k;
    assert(values.size() <= total);

    ModelTime start = mesh.now();
    sim::ScopedPhase phase(mesh.acct(), "mesh-odd-even-sort");

    // Snake (boustrophedon) order over the grid keeps every linear
    // neighbour a mesh neighbour, so each round is one hop.
    std::vector<std::uint64_t> a(total, otn::kNull);
    std::copy(values.begin(), values.end(), a.begin());
    mesh.chargeRoute(k); // input fill

    for (std::size_t round = 0; round < total; ++round) {
        for (std::size_t l = round % 2; l + 1 < total; l += 2)
            if (a[l] > a[l + 1])
                std::swap(a[l], a[l + 1]);
        mesh.chargeRoute(1);
    }

    MeshSortResult result;
    result.sorted.assign(a.begin(),
                         a.begin() + static_cast<long>(values.size()));
    result.time = mesh.now() - start;
    return result;
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

/** Cannon's algorithm over a configurable (add, multiply) semiring. */
linalg::IntMatrix
cannon(MeshMachine &mesh, const linalg::IntMatrix &a,
       const linalg::IntMatrix &b, bool boolean)
{
    const std::size_t n = a.rows();
    assert(a.cols() == n && b.rows() == n && b.cols() == n);

    // Initial skew: row i of A rotated left by i, column j of B
    // rotated up by j — at most n-1 hops, done once.
    linalg::IntMatrix as(n, n), bs(n, n), c(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            as(i, j) = a(i, (j + i) % n);
            bs(i, j) = b((i + j) % n, j);
        }
    mesh.chargeRoute(n - 1);

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
        mesh.charge(mesh.cost().bitSerialMultiply());
        mesh.chargeRoute(1);
    }
    return c;
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

MeshMatMulResult
meshMatMul(MeshMachine &mesh, const linalg::IntMatrix &a,
           const linalg::IntMatrix &b)
{
    ModelTime start = mesh.now();
    sim::ScopedPhase phase(mesh.acct(), "mesh-matmul");
    MeshMatMulResult result;
    result.product = cannon(mesh, a, b, /*boolean=*/false);
    result.time = mesh.now() - start;
    return result;
}

MeshMatMulResult
meshBoolMatMul(MeshMachine &mesh, const linalg::BoolMatrix &a,
               const linalg::BoolMatrix &b)
{
    ModelTime start = mesh.now();
    sim::ScopedPhase phase(mesh.acct(), "mesh-bool-matmul");
    MeshMatMulResult result;
    result.product = cannon(mesh, widen(a), widen(b), /*boolean=*/true);
    result.time = mesh.now() - start;
    return result;
}

MeshCcResult
meshConnectedComponents(MeshMachine &mesh, const graph::Graph &g)
{
    const std::size_t n = g.vertices();
    ModelTime start = mesh.now();
    sim::ScopedPhase phase(mesh.acct(), "mesh-cc");

    // reach := (A + I)^(2^ceil(log n)) by repeated Boolean squaring on
    // the Cannon engine.
    linalg::IntMatrix reach(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            reach(i, j) = (i == j || g.hasEdge(i, j)) ? 1 : 0;
    for (unsigned s = 0; s < vlsi::logCeilAtLeast1(n); ++s)
        reach = cannon(mesh, reach, reach, /*boolean=*/true);

    // Min-label pass: one systolic column sweep.
    std::vector<std::size_t> labels(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t lab = i;
        for (std::size_t j = 0; j < n; ++j)
            if (reach(i, j))
                lab = std::min(lab, j);
        labels[i] = lab;
    }
    mesh.chargeRoute(n);

    MeshCcResult result;
    result.labels = graph::canonicalizeLabels(labels);
    std::vector<std::size_t> distinct = result.labels;
    std::sort(distinct.begin(), distinct.end());
    result.componentCount = static_cast<std::size_t>(
        std::unique(distinct.begin(), distinct.end()) - distinct.begin());
    result.time = mesh.now() - start;
    return result;
}

} // namespace ot::baselines
