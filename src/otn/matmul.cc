#include "otn/matmul.hh"

#include <cassert>

namespace ot::otn {

namespace {

/** Shared body of one vector-matrix product (B already in Reg::B). */
void
vecMatBody(OrthogonalTreesNetwork &net, const std::vector<std::uint64_t> &a,
           bool boolean)
{
    net.setRowRootInputs(a);
    // For each row k pardo: rootToLeaf(Row, k, all, A).
    net.batchRowBroadcast(Reg::A);
    // C := A * B (absent operands contribute nothing to the sum),
    // then for each col j pardo: sumLeafToRoot(Col, j, all, C).
    net.batchProductColSum(boolean ? 1 : net.cost().bitSerialMultiply(),
                           boolean, Reg::A, Reg::B, Reg::C);
}

/** Convert a BoolMatrix to the machine's IntMatrix form. */
linalg::IntMatrix
widen(const linalg::BoolMatrix &m)
{
    linalg::IntMatrix out(m.rows(), m.cols(), 0);
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j)
            out(i, j) = m(i, j) ? 1 : 0;
    return out;
}

/** Generic pipelined product; `boolean` selects (AND, OR-as-sum). */
MatMulResult
matMulImpl(OrthogonalTreesNetwork &net, const linalg::IntMatrix &a,
           const linalg::IntMatrix &b, bool boolean, ModelTime separation)
{
    assert(a.cols() == b.rows() && a.rows() == a.cols());
    assert(b.rows() == b.cols() && a.rows() <= net.n());
    const std::size_t m = a.rows();

    MatMulResult result;
    result.product = linalg::IntMatrix(m, m, 0);

    ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(), boolean ? "bool-matmul-otn"
                                               : "matmul-otn");
    net.loadBase(Reg::B, b, /*charged=*/true, separation);

    // First vector product is charged in full (it sets the pipeline
    // latency)...
    vecMatBody(net, a.row(0), boolean);
    const auto &out0 = net.colRootOutputs();
    for (std::size_t j = 0; j < m; ++j)
        result.product(0, j) = boolean ? (out0[j] ? 1 : 0) : out0[j];
    result.firstRowLatency = net.now() - start;

    // ...the remaining N-1 products ride the pipeline `separation`
    // time units apart (Section III-A: "the separation in time between
    // successive i's in the pipeline is O(log N) units").
    for (std::size_t i = 1; i < m; ++i) {
        net.runUncharged([&] { vecMatBody(net, a.row(i), boolean); });
        const auto &out = net.colRootOutputs();
        for (std::size_t j = 0; j < m; ++j)
            result.product(i, j) = boolean ? (out[j] ? 1 : 0) : out[j];
        net.charge(separation);
    }

    result.rowInterval = separation;
    result.time = net.now() - start;
    return result;
}

} // namespace

std::vector<std::uint64_t>
vecMatMulOtn(OrthogonalTreesNetwork &net, const std::vector<std::uint64_t> &a)
{
    vecMatBody(net, a, /*boolean=*/false);
    // Copy: the result is truncated to the caller's length.
    std::vector<std::uint64_t> out = net.colRootOutputs();
    out.resize(a.size());
    return out;
}

MatMulResult
matMulPipelined(OrthogonalTreesNetwork &net, const linalg::IntMatrix &a,
                const linalg::IntMatrix &b)
{
    return matMulImpl(net, a, b, /*boolean=*/false,
                      net.cost().wordSeparation());
}

MatMulResult
boolMatMulPipelined(OrthogonalTreesNetwork &net, const linalg::BoolMatrix &a,
                    const linalg::BoolMatrix &b)
{
    // Boolean elements are single bits: unit pipeline separation
    // (Section VI-B: "the interval between successive elements in a
    // pipeline can be reduced to O(1)").
    return matMulImpl(net, widen(a), widen(b), /*boolean=*/true, 1);
}

MatMulStreamResult
matMulStream(OrthogonalTreesNetwork &net,
             const std::vector<linalg::IntMatrix> &as,
             const linalg::IntMatrix &b)
{
    MatMulStreamResult result;
    if (as.empty())
        return result;
    const std::size_t m = b.rows();
    const ModelTime sep = net.cost().wordSeparation();

    ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(), "matmul-stream-otn");
    net.loadBase(Reg::B, b);

    for (std::size_t idx = 0; idx < as.size(); ++idx) {
        const auto &a = as[idx];
        assert(a.rows() == m && a.cols() == m);
        linalg::IntMatrix product(m, m, 0);
        for (std::size_t i = 0; i < m; ++i) {
            if (idx == 0 && i == 0) {
                // Only the very first row pays the fill latency.
                vecMatBody(net, a.row(0), /*boolean=*/false);
            } else {
                net.runUncharged(
                    [&] { vecMatBody(net, a.row(i), false); });
                net.charge(sep);
            }
            const auto &out = net.colRootOutputs();
            for (std::size_t j = 0; j < m; ++j)
                product(i, j) = out[j];
        }
        result.products.push_back(std::move(product));
    }

    result.matrixInterval = m * sep;
    result.totalTime = net.now() - start;
    return result;
}

MatMulResult
boolMatMulReplicated(OrthogonalTreesNetwork &block,
                     const linalg::BoolMatrix &a,
                     const linalg::BoolMatrix &b)
{
    assert(a.rows() == a.cols() && b.rows() == b.cols());
    assert(a.cols() == b.rows() && a.rows() <= block.n());
    const std::size_t m = a.rows();

    MatMulResult result;
    result.product = linalg::IntMatrix(m, m, 0);

    ModelTime start = block.now();
    sim::ScopedPhase phase(block.acct(), "bool-matmul-replicated");

    // Distribute B to all N blocks: a pipelined broadcast through a
    // depth-log(N) distribution tree; with bit-entries streaming at
    // unit separation this is O(log^2 N).  Charged once — the blocks
    // all receive simultaneously.
    block.loadBase(Reg::B, widen(b), /*charged=*/true, /*separation=*/1);

    // Every block computes its row's vector product concurrently; the
    // charged time is ONE product (they are disjoint hardware).  We
    // reuse the single physical block per row, which is exact because
    // the products share only B.
    ModelTime one_product = 0;
    for (std::size_t i = 0; i < m; ++i) {
        std::vector<std::uint64_t> row = [&] {
            std::vector<std::uint64_t> r(m);
            for (std::size_t j = 0; j < m; ++j)
                r[j] = a(i, j) ? 1 : 0;
            return r;
        }();
        ModelTime t =
            block.runUncharged([&] { vecMatBody(block, row, true); });
        one_product = std::max(one_product, t);
        const auto &out = block.colRootOutputs();
        for (std::size_t j = 0; j < m; ++j)
            result.product(i, j) = out[j] ? 1 : 0;
    }
    block.charge(one_product);

    result.firstRowLatency = block.now() - start;
    result.rowInterval = 0;
    result.time = block.now() - start;
    return result;
}

} // namespace ot::otn
