#include "otn/matmul.hh"

#include <algorithm>
#include <cassert>
#include <type_traits>

namespace ot::otn {

namespace {

/** Nominal base-op cost of one product step. */
ModelTime
stepCost(const OrthogonalTreesNetwork &net, bool boolean)
{
    return boolean ? 1 : net.cost().bitSerialMultiply();
}

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
    net.batchProductColSum(stepCost(net, boolean), boolean, Reg::A, Reg::B,
                           Reg::C);
}

/** Cell of an operand as the word it feeds a row root. */
std::uint64_t
cellWord(std::uint64_t v)
{
    return v;
}

std::uint64_t
cellWord(std::uint8_t v)
{
    return v != 0;
}

/**
 * Product step i of a whole-matrix product whose data is computed
 * already.  Only the `last` step runs the data path (vecMatBody), so
 * the registers end as the per-row formulation leaves them; every
 * other step replays the same accounting, which does not depend on
 * the data.
 */
template <typename T>
void
productStep(OrthogonalTreesNetwork &net, const linalg::Matrix<T> &a,
            std::size_t i, bool last)
{
    constexpr bool boolean = std::is_same_v<T, std::uint8_t>;
    const T *row = a.rowData(i);
    if (last) {
        std::vector<std::uint64_t> words(a.cols());
        for (std::size_t k = 0; k < a.cols(); ++k)
            words[k] = cellWord(row[k]);
        vecMatBody(net, words, boolean);
        return;
    }
    // The check setRowRootInputs makes of every input word.
    for (std::size_t k = 0; k < a.cols(); ++k)
        assert(net.fitsWord(cellWord(row[k])));
    net.chargeProductStep(stepCost(net, boolean));
}

/** The integer products' data: all rows of a against Reg::B at once. */
linalg::IntMatrix
productData(const OrthogonalTreesNetwork &net, const linalg::IntMatrix &a,
            const linalg::IntMatrix &b)
{
    linalg::IntMatrix c(a.rows(), b.cols(), 0);
    net.productRows(a, Reg::B, c);
    return c;
}

/**
 * The Boolean products' data, in inner-product form: entry (i, j) is 1
 * iff packed row i of a and packed column j of b (64 cells to a word)
 * share a set bit, which is when the product step's count at column
 * root j is nonzero.  It shares no code with linalg::boolMatMul, which
 * ORs packed rows of B.
 */
linalg::IntMatrix
productData(const OrthogonalTreesNetwork &, const linalg::BoolMatrix &a,
            const linalg::BoolMatrix &b)
{
    constexpr std::size_t kBits = 64;
    const std::size_t words = (a.cols() + kBits - 1) / kBits;
    std::vector<std::uint64_t> arows(a.rows() * words, 0);
    std::vector<std::uint64_t> bcols(b.cols() * words, 0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const std::uint8_t *src = a.rowData(i);
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const std::uint64_t bit = src[k] != 0;
            arows[i * words + k / kBits] |= bit << (k % kBits);
        }
    }
    for (std::size_t k = 0; k < b.rows(); ++k) {
        const std::uint8_t *src = b.rowData(k);
        for (std::size_t j = 0; j < b.cols(); ++j) {
            const std::uint64_t bit = src[j] != 0;
            bcols[j * words + k / kBits] |= bit << (k % kBits);
        }
    }
    linalg::IntMatrix c(a.rows(), b.cols(), 0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const std::uint64_t *ai = arows.data() + i * words;
        std::uint64_t *ci = c.rowData(i);
        for (std::size_t j = 0; j < b.cols(); ++j) {
            const std::uint64_t *bj = bcols.data() + j * words;
            std::uint64_t hit = 0;
            for (std::size_t w = 0; w < words; ++w)
                hit |= ai[w] & bj[w];
            ci[j] = hit != 0;
        }
    }
    return c;
}

/**
 * Generic pipelined product; Boolean operands select (AND,
 * OR-as-sum).  The data of all N vector products is one pass
 * (productData); the pipeline's accounting is replayed product by
 * product.
 */
template <typename T>
MatMulResult
matMulImpl(OrthogonalTreesNetwork &net, const linalg::Matrix<T> &a,
           const linalg::Matrix<T> &b, ModelTime separation)
{
    assert(a.cols() == b.rows() && a.rows() == a.cols());
    assert(b.rows() == b.cols() && a.rows() <= net.n());
    constexpr bool boolean = std::is_same_v<T, std::uint8_t>;
    const std::size_t m = a.rows();

    MatMulResult result;
    ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(), boolean ? "bool-matmul-otn"
                                               : "matmul-otn");
    net.loadBase(Reg::B, b, /*charged=*/true, separation);
    result.product = productData(net, a, b);

    // First vector product is charged in full (it sets the pipeline
    // latency)...
    productStep(net, a, 0, m == 1);
    result.firstRowLatency = net.now() - start;

    // ...the remaining N-1 products ride the pipeline `separation`
    // time units apart (Section III-A: "the separation in time between
    // successive i's in the pipeline is O(log N) units").
    for (std::size_t i = 1; i < m; ++i) {
        net.runUncharged([&] { productStep(net, a, i, i + 1 == m); });
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
    return matMulImpl(net, a, b, net.cost().wordSeparation());
}

MatMulResult
boolMatMulPipelined(OrthogonalTreesNetwork &net, const linalg::BoolMatrix &a,
                    const linalg::BoolMatrix &b)
{
    // Boolean elements are single bits: unit pipeline separation
    // (Section VI-B: "the interval between successive elements in a
    // pipeline can be reduced to O(1)").
    return matMulImpl(net, a, b, 1);
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
        result.products.push_back(productData(net, a, b));
        const bool last_matrix = idx + 1 == as.size();
        for (std::size_t i = 0; i < m; ++i) {
            const bool last = last_matrix && i + 1 == m;
            if (idx == 0 && i == 0) {
                // Only the very first row pays the fill latency.
                productStep(net, a, 0, last);
            } else {
                net.runUncharged([&] { productStep(net, a, i, last); });
                net.charge(sep);
            }
        }
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
    ModelTime start = block.now();
    sim::ScopedPhase phase(block.acct(), "bool-matmul-replicated");

    // Distribute B to all N blocks: a pipelined broadcast through a
    // depth-log(N) distribution tree; with bit-entries streaming at
    // unit separation this is O(log^2 N).  Charged once — the blocks
    // all receive simultaneously.
    block.loadBase(Reg::B, b, /*charged=*/true, /*separation=*/1);
    result.product = productData(block, a, b);

    // Every block computes its row's vector product concurrently; the
    // charged time is ONE product (they are disjoint hardware).  We
    // reuse the single physical block per row, which is exact because
    // the products share only B.
    ModelTime one_product = 0;
    for (std::size_t i = 0; i < m; ++i) {
        ModelTime t =
            block.runUncharged([&] { productStep(block, a, i, i + 1 == m); });
        one_product = std::max(one_product, t);
    }
    block.charge(one_product);

    result.firstRowLatency = block.now() - start;
    result.rowInterval = 0;
    result.time = block.now() - start;
    return result;
}

} // namespace ot::otn
