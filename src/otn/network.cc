#include "otn/network.hh"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "vlsi/bitmath.hh"

namespace ot::otn {

namespace {

/** Trace addressing of one per-tree primitive. */
sim::ChainEngine::SpanArgs
treeSpan(Axis axis, std::size_t idx, std::size_t n, std::uint64_t words)
{
    sim::ChainEngine::SpanArgs args;
    args.axis = axis == Axis::Row ? trace::TraceAxis::Row
                                  : trace::TraceAxis::Col;
    args.tree = static_cast<std::int64_t>(idx);
    args.levels = vlsi::logCeilAtLeast1(n);
    args.words = words;
    return args;
}

/** Trace addressing of a whole-base (no single tree) operation. */
sim::ChainEngine::SpanArgs
baseSpan(std::uint64_t words)
{
    sim::ChainEngine::SpanArgs args;
    args.words = words;
    return args;
}

/** Stat and span names of each OrthogonalTreesNetwork::Ctr. */
struct CounterName
{
    const char *stat;
    const char *span;
};

constexpr CounterName kCounterNames[] = {
    {"otn.rootToLeaf", "rootToLeaf"},
    {"otn.leafToRoot", "leafToRoot"},
    {"otn.countLeafToRoot", "countLeafToRoot"},
    {"otn.sumLeafToRoot", "sumLeafToRoot"},
    {"otn.minLeafToRoot", "minLeafToRoot"},
    {"otn.leafToLeaf", "leafToLeaf"},
    {"otn.countLeafToLeaf", "countLeafToLeaf"},
    {"otn.permuteLeafToLeaf", "permuteLeafToLeaf"},
    {"otn.prefixSumLeafToLeaf", "prefixSumLeafToLeaf"},
    {"otn.baseOp", "baseOp"},
};

} // namespace

OrthogonalTreesNetwork::OrthogonalTreesNetwork(std::size_t n,
                                               const CostModel &cost,
                                               layout::LayoutParams params)
    : _n(vlsi::nextPow2(n ? n : 1)),
      _cost(cost),
      _layout(_n, cost.word().bits(), params),
      _engine(_acct, _stats),
      _backend(simd::activeBackend()),
      _kernels(&simd::kernelsFor(_backend)),
      _regs(kNumRegs, simd::Grid{_n, 1}),
      _rowRoot(_n, kNull),
      _colRoot(_n, kNull)
{
}

sim::Counter &
OrthogonalTreesNetwork::counter(Ctr c)
{
    static_assert(std::size(kCounterNames) ==
                  static_cast<std::size_t>(Ctr::Count));
    sim::Counter *&slot = _counters[static_cast<std::size_t>(c)];
    if (!slot)
        slot = &_engine.counter(kCounterNames[static_cast<unsigned>(c)].stat);
    return *slot;
}

sim::ChainEngine::ReplayStep
OrthogonalTreesNetwork::treeStep(Ctr c, Axis axis, ModelTime dur)
{
    return {&counter(c), kCounterNames[static_cast<unsigned>(c)].span, dur,
            treeSpan(axis, 0, _n, 1)};
}

ModelTime
OrthogonalTreesNetwork::chargeTree(Ctr c, ModelTime dt, Axis axis,
                                   std::size_t idx, std::uint64_t words)
{
    ++counter(c);
    _engine.traceSpan("otn", kCounterNames[static_cast<unsigned>(c)].span, dt,
                      treeSpan(axis, idx, _n, words));
    charge(dt);
    return dt;
}

sim::ChainEngine::ReplayStep
OrthogonalTreesNetwork::countStep(Ctr c)
{
    return {&counter(c), nullptr, 0, {}};
}

void
OrthogonalTreesNetwork::setRowRootInputs(std::span<const std::uint64_t> values)
{
    assert(values.size() <= _n);
    for (std::size_t i = 0; i < values.size(); ++i) {
        assert(fitsWord(values[i]));
        _rowRoot[i] = values[i];
    }
    for (std::size_t i = values.size(); i < _n; ++i)
        _rowRoot[i] = kNull;
}

void
OrthogonalTreesNetwork::fillReg(Reg r, std::uint64_t value)
{
    _kernels->fill(overwritePlane(r, {}), _n * _n, value);
}

const std::uint64_t *
OrthogonalTreesNetwork::readRow(Reg r, std::size_t i,
                                std::uint64_t *buf) const
{
    return _regs.row(static_cast<unsigned>(r), i, buf, *_kernels);
}

std::uint64_t *
OrthogonalTreesNetwork::overwritePlane(Reg out,
                                       std::initializer_list<Reg> inputs)
{
    return _regs.overwrite(
        static_cast<unsigned>(out),
        std::find(inputs.begin(), inputs.end(), out) != inputs.end(),
        *_kernels);
}

void
OrthogonalTreesNetwork::tagConst(Reg r, simd::Shape shape,
                                 const std::uint64_t *v)
{
    assert(shape == simd::Shape::RowConst || shape == simd::Shape::ColConst);
    std::memcpy(tagPlane(r, shape), v, _n * sizeof(std::uint64_t));
}

ModelTime
OrthogonalTreesNetwork::computeTreeTraversalCost() const
{
    return _cost.wordAlongPath(_layout.tree().pathEdges());
}

ModelTime
OrthogonalTreesNetwork::computeTreeReduceCost() const
{
    return _cost.reducePath(_layout.tree().pathEdges());
}

std::uint64_t &
OrthogonalTreesNetwork::rootReg(Axis axis, std::size_t idx)
{
    assert(idx < _n);
    return axis == Axis::Row ? _rowRoot[idx] : _colRoot[idx];
}

ModelTime
OrthogonalTreesNetwork::rootToLeaf(Axis axis, std::size_t idx,
                                   const Selector &sel, Reg dest)
{
    std::uint64_t value = rootReg(axis, idx);
    if (axis == Axis::Row && sel.kind() == Sel::Kind::All) {
        // Row leaves are one contiguous plane row: broadcast with the
        // batch fill kernel instead of the per-leaf walk.
        _kernels->fill(regRow(dest, idx), _n, value);
    } else {
        for (std::size_t k = 0; k < _n; ++k) {
            auto [i, j] = leafAddr(axis, idx, k);
            if (selected(sel, i, j))
                reg(dest, i, j) = value;
        }
    }
    return chargeTree(Ctr::RootToLeaf, treeTraversalCost(), axis, idx, 1);
}

ModelTime
OrthogonalTreesNetwork::leafToRoot(Axis axis, std::size_t idx,
                                   const Selector &sel, Reg src)
{
    const OrthogonalTreesNetwork &self = *this;
    std::uint64_t value = kNull;
    [[maybe_unused]] unsigned n_selected = 0;
    for (std::size_t k = 0; k < _n; ++k) {
        auto [i, j] = leafAddr(axis, idx, k);
        if (selected(sel, i, j)) {
            value = self.reg(src, i, j);
            ++n_selected;
        }
    }
    assert(n_selected <= 1 && "LEAFTOROOT requires a unique source leaf");
    rootReg(axis, idx) = value;
    return chargeTree(Ctr::LeafToRoot, treeTraversalCost(), axis, idx, 1);
}

template <typename LeafValue, typename Combine>
std::uint64_t
OrthogonalTreesNetwork::reduceTree(LeafValue &&leaf_value, Combine &&combine)
{
    // Level-by-level: each IP combines the values accumulated by its
    // two sons (Section II-B, COUNT-LEAFTOROOT description).  The
    // halving is done in place in a per-host-thread scratch buffer so
    // the reduction allocates nothing in steady state.
    thread_local std::vector<std::uint64_t> level;
    level.resize(_n);
    for (std::size_t k = 0; k < _n; ++k)
        level[k] = leaf_value(k);
    for (std::size_t width = _n; width > 1; width /= 2)
        for (std::size_t k = 0; k < width / 2; ++k)
            level[k] = combine(level[2 * k], level[2 * k + 1]);
    return level[0];
}

ModelTime
OrthogonalTreesNetwork::countLeafToRoot(Axis axis, std::size_t idx, Reg flag)
{
    const OrthogonalTreesNetwork &self = *this;
    if (axis == Axis::Row) {
        // Counting is associative: the kernel's linear tally equals
        // the pairwise-halving tree sum bit for bit.
        rootReg(axis, idx) = _kernels->countNonzero(
            readRow(flag, idx, rowScratch(0)), _n);
    } else {
        rootReg(axis, idx) = reduceTree(
            [&](std::size_t k) {
                auto [i, j] = leafAddr(axis, idx, k);
                return self.reg(flag, i, j) != 0 ? std::uint64_t{1} : 0;
            },
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
    }
    return chargeTree(Ctr::CountLeafToRoot, treeReduceCost(), axis, idx, 1);
}

ModelTime
OrthogonalTreesNetwork::sumLeafToRoot(Axis axis, std::size_t idx,
                                      const Selector &sel, Reg src)
{
    const OrthogonalTreesNetwork &self = *this;
    if (axis == Axis::Row && sel.kind() == Sel::Kind::All) {
        // Modular sum is associative: linear order == tree order.
        rootReg(axis, idx) =
            _kernels->reduceSum(readRow(src, idx, rowScratch(0)), _n);
    } else {
        rootReg(axis, idx) = reduceTree(
            [&](std::size_t k) -> std::uint64_t {
                auto [i, j] = leafAddr(axis, idx, k);
                return selected(sel, i, j) ? self.reg(src, i, j) : 0;
            },
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
    }
    return chargeTree(Ctr::SumLeafToRoot, treeReduceCost(), axis, idx, 1);
}

ModelTime
OrthogonalTreesNetwork::minLeafToRoot(Axis axis, std::size_t idx,
                                      const Selector &sel, Reg src)
{
    const OrthogonalTreesNetwork &self = *this;
    if (axis == Axis::Row && sel.kind() == Sel::Kind::All) {
        rootReg(axis, idx) =
            _kernels->reduceMin(readRow(src, idx, rowScratch(0)), _n);
    } else {
        rootReg(axis, idx) = reduceTree(
            [&](std::size_t k) -> std::uint64_t {
                auto [i, j] = leafAddr(axis, idx, k);
                return selected(sel, i, j) ? self.reg(src, i, j) : kNull;
            },
            [](std::uint64_t a, std::uint64_t b) {
                return std::min(a, b);
            });
    }
    return chargeTree(Ctr::MinLeafToRoot, treeReduceCost(), axis, idx, 1);
}

ModelTime
OrthogonalTreesNetwork::leafToLeaf(Axis axis, std::size_t idx,
                                   const Selector &src_sel, Reg src,
                                   const Selector &dst_sel, Reg dst)
{
    ModelTime dt = leafToRoot(axis, idx, src_sel, src);
    dt += rootToLeaf(axis, idx, dst_sel, dst);
    ++counter(Ctr::LeafToLeaf);
    return dt;
}

ModelTime
OrthogonalTreesNetwork::countLeafToLeaf(Axis axis, std::size_t idx, Reg flag,
                                        const Selector &dst_sel, Reg dst)
{
    ModelTime dt = countLeafToRoot(axis, idx, flag);
    dt += rootToLeaf(axis, idx, dst_sel, dst);
    ++counter(Ctr::CountLeafToLeaf);
    return dt;
}

template <typename T, typename Word>
ModelTime
OrthogonalTreesNetwork::writeBase(Reg r, const linalg::Matrix<T> &m,
                                  Word &&word, bool charged,
                                  ModelTime separation)
{
    assert(m.rows() <= _n && m.cols() <= _n);
    // Every word written once: m's rows, then kNull padding to the
    // right of them and below them.
    std::uint64_t *plane = overwritePlane(r, {});
    for (std::size_t i = 0; i < m.rows(); ++i) {
        const T *src = m.rowData(i);
        std::uint64_t *row = plane + i * _n;
        for (std::size_t j = 0; j < m.cols(); ++j)
            row[j] = word(src[j]);
        _kernels->fill(row + m.cols(), _n - m.cols(), kNull);
    }
    _kernels->fill(plane + m.rows() * _n, (_n - m.rows()) * _n, kNull);
    if (!charged)
        return 0;
    // All row trees in parallel, each streaming up to N words from its
    // root to distinct leaves in a pipeline.
    if (separation == 0)
        separation = _cost.wordSeparation();
    ModelTime dt =
        CostModel::pipelineTotal(treeTraversalCost(), _n, separation);
    _engine.traceSpan("otn", "loadBase", dt,
                      baseSpan(static_cast<std::uint64_t>(_n) * _n));
    charge(dt);
    return dt;
}

ModelTime
OrthogonalTreesNetwork::loadBase(Reg r, const linalg::IntMatrix &m,
                                 bool charged, ModelTime separation)
{
    return writeBase(
        r, m,
        [&](std::uint64_t v) {
            assert(fitsWord(v));
            return v;
        },
        charged, separation);
}

ModelTime
OrthogonalTreesNetwork::loadBase(Reg r, const linalg::BoolMatrix &m,
                                 bool charged, ModelTime separation)
{
    return writeBase(
        r, m, [](std::uint8_t v) { return std::uint64_t{v != 0}; }, charged,
        separation);
}

ModelTime
OrthogonalTreesNetwork::loadBaseAbsent(Reg r, const linalg::IntMatrix &m,
                                       std::uint64_t absent, bool charged,
                                       ModelTime separation)
{
    return writeBase(
        r, m,
        [&](std::uint64_t v) {
            assert(v == absent || fitsWord(v));
            return v == absent ? kNull : v;
        },
        charged, separation);
}

linalg::IntMatrix
OrthogonalTreesNetwork::readBase(Reg r) const
{
    linalg::IntMatrix m(_n, _n, 0);
    const std::uint64_t *plane = regPlane(r);
    for (std::size_t i = 0; i < _n; ++i)
        std::memcpy(m.rowData(i), plane + i * _n,
                    _n * sizeof(std::uint64_t));
    return m;
}

ModelTime
OrthogonalTreesNetwork::permutationCost(
    std::span<const std::size_t> perm) const
{
    assert(perm.size() == _n);
    // Congestion: for each internal node (identified by its level and
    // span), count words whose source and destination fall in
    // different child subtrees.  At level h (from the leaves, h >= 1)
    // the node over span s covers leaves [s*2^h, (s+1)*2^h); a word
    // k -> perm[k] crosses it iff both endpoints are in the span but
    // in different halves.
    thread_local std::vector<std::uint64_t> crossing;
    std::uint64_t busiest = 0;
    for (std::size_t span = 2; span <= _n; span <<= 1) {
        crossing.assign(_n / span, 0);
        for (std::size_t k = 0; k < _n; ++k) {
            std::size_t from_block = k / span;
            std::size_t to_block = perm[k] / span;
            if (from_block != to_block)
                continue; // crosses a higher node instead
            bool from_left = (k % span) < span / 2;
            bool to_left = (perm[k] % span) < span / 2;
            if (from_left != to_left)
                ++crossing[from_block];
        }
        for (auto c : crossing)
            busiest = std::max(busiest, c);
    }
    ModelTime drain =
        busiest > 1 ? (busiest - 1) * _cost.wordSeparation() : 0;
    return treeTraversalCost() + drain;
}

ModelTime
OrthogonalTreesNetwork::permuteLeafToLeaf(Axis axis, std::size_t idx,
                                          std::span<const std::size_t> perm,
                                          Reg src, Reg dst)
{
    assert(perm.size() == _n);
#ifndef NDEBUG
    {
        std::vector<bool> seen(_n, false);
        for (std::size_t k = 0; k < _n; ++k) {
            assert(perm[k] < _n && !seen[perm[k]] &&
                   "perm must be a permutation");
            seen[perm[k]] = true;
        }
    }
#endif
    const OrthogonalTreesNetwork &self = *this;
    thread_local std::vector<std::uint64_t> moved;
    moved.resize(_n);
    for (std::size_t k = 0; k < _n; ++k) {
        auto [i, j] = leafAddr(axis, idx, k);
        moved[perm[k]] = self.reg(src, i, j);
    }
    for (std::size_t k = 0; k < _n; ++k) {
        auto [i, j] = leafAddr(axis, idx, k);
        reg(dst, i, j) = moved[k];
    }
    return chargeTree(Ctr::PermuteLeafToLeaf, permutationCost(perm), axis,
                      idx, 0);
}

ModelTime
OrthogonalTreesNetwork::prefixSumLeafToLeaf(Axis axis, std::size_t idx,
                                            const Selector &src_sel,
                                            Reg src, Reg dst)
{
    // Two-sweep scan over the implicit tree.  The simulation computes
    // the running sum directly (it is equivalent to the up/down
    // sweeps); the cost is two combining traversals.
    const OrthogonalTreesNetwork &self = *this;
    std::uint64_t running = 0;
    for (std::size_t k = 0; k < _n; ++k) {
        auto [i, j] = leafAddr(axis, idx, k);
        if (selected(src_sel, i, j))
            running += self.reg(src, i, j);
        reg(dst, i, j) = running;
    }
    return chargeTree(Ctr::PrefixSumLeafToLeaf, 2 * treeReduceCost(), axis,
                      idx, 0);
}

ModelTime
OrthogonalTreesNetwork::chargeBaseOp(ModelTime op_cost)
{
    ModelTime dt = baseOpCost(op_cost);
    ++counter(Ctr::BaseOp);
    _engine.traceSpan("otn", "baseOp", dt, baseSpan(0));
    charge(dt);
    return dt;
}

ModelTime
OrthogonalTreesNetwork::baseOpRows(ModelTime op_cost, simd::BinaryRowFn fn,
                                   Reg a, Reg b, Reg out)
{
    return baseOpByRow(op_cost, out, {a, b},
                       [&](std::size_t, std::uint64_t *o,
                           const std::uint64_t *const *in) {
                           fn(o, in[0], in[1], _n);
                       });
}

// ----------------------------------------------------------------------
// Batch primitives.
//
// Each runs the data movement of all N per-tree primitives through the
// kernel table first (plane-contiguous, single-threaded), then replays
// the per-tree model-time accounting — the same counters, trace spans
// and charges, in the same per-iteration order — through replayTrees,
// so every accounting observable is bit-identical to the per-tree
// formulation.
//
// Broadcasts leave their destination tagged (RowConst, ColConst) with
// the N root words instead of writing N^2; inputs are read through
// readRow (simd::RegFile::row), and the key-indexed primitives take an
// O(N) path when their key is RowConst (one candidate column per row).
// The rank compare of two broadcasts is tagged RankCount, and counting
// it ranks the two vectors by one stable radix order each
// (simd::rankCounts): SORT-OTN writes no plane word and compares no
// pair of words.  The graph candidate step is tagged Candidate, and its
// row minima walk the graph plane's packed presence bits: CONNECT and
// MST never write their candidate plane.
// ----------------------------------------------------------------------

ModelTime
OrthogonalTreesNetwork::replayRowBroadcast()
{
    return replayTrees(
        {treeStep(Ctr::RootToLeaf, Axis::Row, treeTraversalCost())});
}

ModelTime
OrthogonalTreesNetwork::replayColSum()
{
    return replayTrees(
        {treeStep(Ctr::SumLeafToRoot, Axis::Col, treeReduceCost())});
}

ModelTime
OrthogonalTreesNetwork::batchRowBroadcast(Reg dest)
{
    tagConst(dest, simd::Shape::RowConst, _rowRoot.data());
    return replayRowBroadcast();
}

ModelTime
OrthogonalTreesNetwork::batchProductColSum(ModelTime op_cost, bool boolean,
                                           Reg a, Reg b, Reg out)
{
    assert(regShape(a) == simd::Shape::RowConst);
    assert(out != a && out != b);
    const std::uint64_t *s = _regs.shapeVec(static_cast<unsigned>(a));
    const simd::ScalarRowAccumFn fn =
        boolean ? _kernels->andAccumRow : _kernels->mulAccumRow;
    std::uint64_t *c = overwritePlane(out, {});
    _kernels->fill(_colRoot.data(), _n, 0);
    // The kernels write a row whose scalar is absent or zero as zeros
    // and add nothing for it.
    for (std::size_t i = 0; i < _n; ++i)
        fn(_colRoot.data(), c + i * _n, s[i], readRow(b, i, rowScratch(0)),
           _n);
    const ModelTime dt = chargeBaseOp(op_cost);
    return dt + replayColSum();
}

ModelTime
OrthogonalTreesNetwork::chargeProductStep(ModelTime op_cost)
{
    ModelTime dt = replayRowBroadcast();
    dt += chargeBaseOp(op_cost);
    return dt + replayColSum();
}

void
OrthogonalTreesNetwork::productRows(const linalg::IntMatrix &a, Reg b,
                                    linalg::IntMatrix &out) const
{
    assert(out.rows() == a.rows() && a.cols() <= _n && out.cols() <= _n);
    if (a.rows() == 0 || a.cols() == 0 || out.cols() == 0)
        return;
    // Rows k >= a.cols() of b meet only the kNull padding of the
    // input vectors, which adds nothing, so the pass stops at them.
    _kernels->macTileAbsent(out.rowData(0), out.cols(), a.rowData(0),
                            a.cols(),
                            std::as_const(_regs).plane(
                                static_cast<unsigned>(b)),
                            _n, a.rows(), a.cols(), out.cols());
}

ModelTime
OrthogonalTreesNetwork::batchColMin(Reg src)
{
    _kernels->fill(_colRoot.data(), _n, kNull);
    for (std::size_t i = 0; i < _n; ++i)
        _kernels->accumMinRow(_colRoot.data(),
                              readRow(src, i, rowScratch(0)), _n);
    return replayTrees(
        {treeStep(Ctr::MinLeafToRoot, Axis::Col, treeReduceCost())});
}

ModelTime
OrthogonalTreesNetwork::batchMinColsByKeyIndexToLeaves(Reg key, Reg src,
                                                       const Sel &dst_sel,
                                                       Reg dst)
{
    assert(dst_sel.kind() == Sel::Kind::All ||
           dst_sel.kind() == Sel::Kind::Diag);
    const OrthogonalTreesNetwork &self = *this;
    _kernels->fill(_colRoot.data(), _n, kNull);
    if (regShape(key) == simd::Shape::RowConst) {
        // Row i's only member leaf is column k(i).
        const std::uint64_t *k = _regs.shapeVec(static_cast<unsigned>(key));
        for (std::size_t i = 0; i < _n; ++i)
            if (k[i] < _n)
                _colRoot[k[i]] =
                    std::min(_colRoot[k[i]], self.reg(src, i, k[i]));
    } else {
        for (std::size_t i = 0; i < _n; ++i)
            _kernels->accumMinEqIndexRow(_colRoot.data(),
                                         readRow(key, i, rowScratch(0)),
                                         readRow(src, i, rowScratch(1)), _n);
    }
    // Every column tree touches only its own column, so broadcasting
    // after all the reductions equals the interleaved per-tree order.
    if (dst_sel.kind() == Sel::Kind::All) {
        tagConst(dst, simd::Shape::ColConst, _colRoot.data());
    } else {
        for (std::size_t j = 0; j < _n; ++j)
            reg(dst, j, j) = _colRoot[j];
    }
    return replayTrees(
        {treeStep(Ctr::MinLeafToRoot, Axis::Col, treeReduceCost()),
         treeStep(Ctr::RootToLeaf, Axis::Col, treeTraversalCost())});
}

ModelTime
OrthogonalTreesNetwork::batchMinRowsToLeaves(Reg src, const Sel &dst_sel,
                                             Reg dst)
{
    assert(dst_sel.kind() == Sel::Kind::All ||
           dst_sel.kind() == Sel::Kind::Diag);
    if (regShape(src) == simd::Shape::RowOneHot) {
        // Row i is kNull but for column k(i): its minimum is v(i).
        const std::uint64_t *v = _regs.shapeVec(static_cast<unsigned>(src));
        for (std::size_t i = 0; i < _n; ++i)
            _rowRoot[i] = v[i] < _n ? v[_n + i] : kNull;
    } else if (regShape(src) == simd::Shape::Candidate) {
        _regs.candidateRowMins(static_cast<unsigned>(src), _rowRoot.data());
    } else {
        for (std::size_t i = 0; i < _n; ++i)
            _rowRoot[i] =
                _kernels->reduceMin(readRow(src, i, rowScratch(0)), _n);
    }
    // Every row tree touches only its own row, so broadcasting after
    // all the reductions equals the interleaved per-tree order.
    if (dst_sel.kind() == Sel::Kind::All) {
        tagConst(dst, simd::Shape::RowConst, _rowRoot.data());
    } else {
        for (std::size_t i = 0; i < _n; ++i)
            reg(dst, i, i) = _rowRoot[i];
    }
    return replayTrees(
        {treeStep(Ctr::MinLeafToRoot, Axis::Row, treeReduceCost()),
         treeStep(Ctr::RootToLeaf, Axis::Row, treeTraversalCost())});
}

ModelTime
OrthogonalTreesNetwork::batchDiagToRows(Reg src, Reg dst)
{
    const OrthogonalTreesNetwork &self = *this;
    for (std::size_t i = 0; i < _n; ++i)
        _rowRoot[i] = self.reg(src, i, i);
    tagConst(dst, simd::Shape::RowConst, _rowRoot.data());
    ModelTime leg = treeTraversalCost();
    return replayTrees({treeStep(Ctr::LeafToRoot, Axis::Row, leg),
                        treeStep(Ctr::RootToLeaf, Axis::Row, leg),
                        countStep(Ctr::LeafToLeaf)});
}

ModelTime
OrthogonalTreesNetwork::batchDiagToCols(Reg src, Reg dst)
{
    const OrthogonalTreesNetwork &self = *this;
    for (std::size_t j = 0; j < _n; ++j)
        _colRoot[j] = self.reg(src, j, j);
    tagConst(dst, simd::Shape::ColConst, _colRoot.data());
    ModelTime leg = treeTraversalCost();
    return replayTrees({treeStep(Ctr::LeafToRoot, Axis::Col, leg),
                        treeStep(Ctr::RootToLeaf, Axis::Col, leg),
                        countStep(Ctr::LeafToLeaf)});
}

ModelTime
OrthogonalTreesNetwork::batchCountRowsToLeaves(Reg flag, Reg dst)
{
    if (regShape(flag) == simd::Shape::RankCount) {
        // Row i's count is the rank of x(i) among the x(j).
        const std::uint64_t *v = _regs.shapeVec(static_cast<unsigned>(flag));
        simd::rankCounts(_rowRoot.data(), v, v + _n, _n);
    } else {
        for (std::size_t i = 0; i < _n; ++i)
            _rowRoot[i] =
                _kernels->countNonzero(readRow(flag, i, rowScratch(0)), _n);
    }
    tagConst(dst, simd::Shape::RowConst, _rowRoot.data());
    return replayTrees(
        {treeStep(Ctr::CountLeafToRoot, Axis::Row, treeReduceCost()),
         treeStep(Ctr::RootToLeaf, Axis::Row, treeTraversalCost()),
         countStep(Ctr::CountLeafToLeaf)});
}

ModelTime
OrthogonalTreesNetwork::batchPickColByKeyIndex(Reg key, Reg src)
{
    const OrthogonalTreesNetwork &self = *this;
    thread_local std::vector<std::uint64_t> cnt;
    cnt.assign(_n, 0);
    _kernels->fill(_colRoot.data(), _n, kNull);
    if (regShape(key) == simd::Shape::RowConst) {
        // Row i's only candidate leaf is column k(i).
        const std::uint64_t *k = _regs.shapeVec(static_cast<unsigned>(key));
        for (std::size_t i = 0; i < _n; ++i)
            if (k[i] < _n) {
                _colRoot[k[i]] = self.reg(src, i, k[i]);
                ++cnt[k[i]];
            }
    } else {
        for (std::size_t i = 0; i < _n; ++i)
            _kernels->scatterEqIndexRow(_colRoot.data(), cnt.data(),
                                        readRow(key, i, rowScratch(0)),
                                        readRow(src, i, rowScratch(1)), _n);
    }
    for (std::size_t j = 0; j < _n; ++j)
        assert(cnt[j] <= 1 &&
               "LEAFTOROOT requires a unique source leaf");
    return replayTrees(
        {treeStep(Ctr::LeafToRoot, Axis::Col, treeTraversalCost())});
}

ModelTime
OrthogonalTreesNetwork::batchCompareRank(Reg a, Reg b, Reg flag)
{
    if (regShape(a) == simd::Shape::RowConst &&
        regShape(b) == simd::Shape::ColConst && flag != a && flag != b) {
        // F(i, j) compares x(i) = a's row value with x(j) = b's column
        // value: keep the two vectors, not the N^2 flags.
        const std::uint64_t *x = _regs.shapeVec(static_cast<unsigned>(a));
        const std::uint64_t *y = _regs.shapeVec(static_cast<unsigned>(b));
        std::uint64_t *v = tagPlane(flag, simd::Shape::RankCount);
        std::memcpy(v, x, _n * sizeof(std::uint64_t));
        std::memcpy(v + _n, y, _n * sizeof(std::uint64_t));
    } else {
        std::uint64_t *f = overwritePlane(flag, {a, b});
        for (std::size_t i = 0; i < _n; ++i)
            _kernels->cmpRankRow(f + i * _n, readRow(a, i, rowScratch(0)),
                                 readRow(b, i, rowScratch(1)), _n, i);
    }
    return chargeBaseOp(_cost.bitSerialOp());
}

ModelTime
OrthogonalTreesNetwork::batchSelectValAtKeyIndex(Reg key, Reg val, Reg out)
{
    if (regShape(key) == simd::Shape::RowConst) {
        // Row i of out is kNull but for column k(i), which gets
        // val(i, k(i)): a RowOneHot plane of 2N words.
        const OrthogonalTreesNetwork &self = *this;
        const std::uint64_t *k = _regs.shapeVec(static_cast<unsigned>(key));
        std::uint64_t *v = rowScratch(0);
        for (std::size_t i = 0; i < _n; ++i)
            v[i] = k[i] < _n ? self.reg(val, i, k[i]) : kNull;
        std::uint64_t *o = tagPlane(out, simd::Shape::RowOneHot);
        if (o != k)
            std::memcpy(o, k, _n * sizeof(std::uint64_t));
        std::memcpy(o + _n, v, _n * sizeof(std::uint64_t));
    } else {
        std::uint64_t *o = overwritePlane(out, {key, val});
        for (std::size_t i = 0; i < _n; ++i)
            _kernels->selectEqIndexRow(o + i * _n,
                                       readRow(key, i, rowScratch(0)),
                                       readRow(val, i, rowScratch(1)), _n);
    }
    return chargeBaseOp(_cost.bitSerialOp());
}

ModelTime
OrthogonalTreesNetwork::batchCandidates(simd::CandidateRule rule, Reg a,
                                        Reg b, Reg c, Reg out)
{
    assert(regShape(b) == simd::Shape::RowConst &&
           regShape(c) == simd::Shape::ColConst);
    assert(a != b && a != c && out != a && out != b && out != c);
    const auto src = static_cast<unsigned>(a);
    _regs.makeDense(src, *_kernels);
    std::uint64_t *v =
        _regs.tagCandidate(static_cast<unsigned>(out), src, rule);
    std::memcpy(v, _regs.shapeVec(static_cast<unsigned>(b)),
                _n * sizeof(std::uint64_t));
    std::memcpy(v + _n, _regs.shapeVec(static_cast<unsigned>(c)),
                _n * sizeof(std::uint64_t));
    return chargeBaseOp(_cost.bitSerialOp());
}

} // namespace ot::otn
