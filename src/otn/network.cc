#include "otn/network.hh"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

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
    {"otn.sumLeafToLeaf", "sumLeafToLeaf"},
    {"otn.minLeafToLeaf", "minLeafToLeaf"},
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
      _regs(kNumRegs, _n * _n),
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
    _kernels->fill(regPlane(r), _n * _n, value);
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
    std::uint64_t value = kNull;
    [[maybe_unused]] unsigned n_selected = 0;
    for (std::size_t k = 0; k < _n; ++k) {
        auto [i, j] = leafAddr(axis, idx, k);
        if (selected(sel, i, j)) {
            value = reg(src, i, j);
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
    if (axis == Axis::Row) {
        // Counting is associative: the kernel's linear tally equals
        // the pairwise-halving tree sum bit for bit.
        rootReg(axis, idx) =
            _kernels->countNonzero(regRow(flag, idx), _n);
    } else {
        rootReg(axis, idx) = reduceTree(
            [&](std::size_t k) {
                auto [i, j] = leafAddr(axis, idx, k);
                return reg(flag, i, j) != 0 ? std::uint64_t{1} : 0;
            },
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
    }
    return chargeTree(Ctr::CountLeafToRoot, treeReduceCost(), axis, idx, 1);
}

ModelTime
OrthogonalTreesNetwork::sumLeafToRoot(Axis axis, std::size_t idx,
                                      const Selector &sel, Reg src)
{
    if (axis == Axis::Row && sel.kind() == Sel::Kind::All) {
        // Modular sum is associative: linear order == tree order.
        rootReg(axis, idx) = _kernels->reduceSum(regRow(src, idx), _n);
    } else {
        rootReg(axis, idx) = reduceTree(
            [&](std::size_t k) -> std::uint64_t {
                auto [i, j] = leafAddr(axis, idx, k);
                return selected(sel, i, j) ? reg(src, i, j) : 0;
            },
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
    }
    return chargeTree(Ctr::SumLeafToRoot, treeReduceCost(), axis, idx, 1);
}

ModelTime
OrthogonalTreesNetwork::minLeafToRoot(Axis axis, std::size_t idx,
                                      const Selector &sel, Reg src)
{
    if (axis == Axis::Row && sel.kind() == Sel::Kind::All) {
        rootReg(axis, idx) = _kernels->reduceMin(regRow(src, idx), _n);
    } else {
        rootReg(axis, idx) = reduceTree(
            [&](std::size_t k) -> std::uint64_t {
                auto [i, j] = leafAddr(axis, idx, k);
                return selected(sel, i, j) ? reg(src, i, j) : kNull;
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

ModelTime
OrthogonalTreesNetwork::sumLeafToLeaf(Axis axis, std::size_t idx,
                                      const Selector &src_sel, Reg src,
                                      const Selector &dst_sel, Reg dst)
{
    ModelTime dt = sumLeafToRoot(axis, idx, src_sel, src);
    dt += rootToLeaf(axis, idx, dst_sel, dst);
    ++counter(Ctr::SumLeafToLeaf);
    return dt;
}

ModelTime
OrthogonalTreesNetwork::minLeafToLeaf(Axis axis, std::size_t idx,
                                      const Selector &src_sel, Reg src,
                                      const Selector &dst_sel, Reg dst)
{
    ModelTime dt = minLeafToRoot(axis, idx, src_sel, src);
    dt += rootToLeaf(axis, idx, dst_sel, dst);
    ++counter(Ctr::MinLeafToLeaf);
    return dt;
}

ModelTime
OrthogonalTreesNetwork::loadBase(Reg r, const linalg::IntMatrix &m,
                                 bool charged, ModelTime separation)
{
    assert(m.rows() <= _n && m.cols() <= _n);
    fillReg(r, kNull);
    for (std::size_t i = 0; i < m.rows(); ++i) {
        for (std::size_t j = 0; j < m.cols(); ++j) {
            assert(fitsWord(m(i, j)));
            reg(r, i, j) = m(i, j);
        }
    }
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

linalg::IntMatrix
OrthogonalTreesNetwork::readBase(Reg r) const
{
    linalg::IntMatrix m(_n, _n, 0);
    for (std::size_t i = 0; i < _n; ++i)
        for (std::size_t j = 0; j < _n; ++j)
            m(i, j) = reg(r, i, j);
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
    thread_local std::vector<std::uint64_t> moved;
    moved.resize(_n);
    for (std::size_t k = 0; k < _n; ++k) {
        auto [i, j] = leafAddr(axis, idx, k);
        moved[perm[k]] = reg(src, i, j);
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
    std::uint64_t running = 0;
    for (std::size_t k = 0; k < _n; ++k) {
        auto [i, j] = leafAddr(axis, idx, k);
        if (selected(src_sel, i, j))
            running += reg(src, i, j);
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
    for (std::size_t i = 0; i < _n; ++i)
        fn(regRow(out, i), regRow(a, i), regRow(b, i), _n);
    return chargeBaseOp(op_cost);
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
// ----------------------------------------------------------------------

ModelTime
OrthogonalTreesNetwork::batchRowBroadcast(Reg dest)
{
    for (std::size_t i = 0; i < _n; ++i)
        _kernels->fill(regRow(dest, i), _n, _rowRoot[i]);
    return replayTrees(
        {treeStep(Ctr::RootToLeaf, Axis::Row, treeTraversalCost())});
}

ModelTime
OrthogonalTreesNetwork::batchColSum(Reg src)
{
    // Modular sum is associative: accumulating row after row equals
    // each column tree's pairwise sum bit for bit.
    _kernels->fill(_colRoot.data(), _n, 0);
    for (std::size_t i = 0; i < _n; ++i)
        _kernels->accumSumRow(_colRoot.data(), regRow(src, i), _n);
    return replayTrees(
        {treeStep(Ctr::SumLeafToRoot, Axis::Col, treeReduceCost())});
}

ModelTime
OrthogonalTreesNetwork::batchColMin(Reg src)
{
    _kernels->fill(_colRoot.data(), _n, kNull);
    for (std::size_t i = 0; i < _n; ++i)
        _kernels->accumMinRow(_colRoot.data(), regRow(src, i), _n);
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
    _kernels->fill(_colRoot.data(), _n, kNull);
    for (std::size_t i = 0; i < _n; ++i)
        _kernels->accumMinEqIndexRow(_colRoot.data(), regRow(key, i),
                                     regRow(src, i), _n);
    // Every column tree touches only its own column, so broadcasting
    // after all the reductions equals the interleaved per-tree order.
    if (dst_sel.kind() == Sel::Kind::All) {
        for (std::size_t k = 0; k < _n; ++k)
            std::memcpy(regRow(dst, k), _colRoot.data(),
                        _n * sizeof(std::uint64_t));
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
    const bool all = dst_sel.kind() == Sel::Kind::All;
    for (std::size_t i = 0; i < _n; ++i) {
        std::uint64_t m = _kernels->reduceMin(regRow(src, i), _n);
        _rowRoot[i] = m;
        if (all)
            _kernels->fill(regRow(dst, i), _n, m);
        else
            reg(dst, i, i) = m;
    }
    return replayTrees(
        {treeStep(Ctr::MinLeafToRoot, Axis::Row, treeReduceCost()),
         treeStep(Ctr::RootToLeaf, Axis::Row, treeTraversalCost())});
}

ModelTime
OrthogonalTreesNetwork::batchDiagToRows(Reg src, Reg dst)
{
    for (std::size_t i = 0; i < _n; ++i) {
        std::uint64_t v = reg(src, i, i);
        _rowRoot[i] = v;
        _kernels->fill(regRow(dst, i), _n, v);
    }
    ModelTime leg = treeTraversalCost();
    return replayTrees({treeStep(Ctr::LeafToRoot, Axis::Row, leg),
                        treeStep(Ctr::RootToLeaf, Axis::Row, leg),
                        countStep(Ctr::LeafToLeaf)});
}

ModelTime
OrthogonalTreesNetwork::batchDiagToCols(Reg src, Reg dst)
{
    // Every column j delivers reg(src, j, j) to all of its leaves, so
    // each destination row is the same vector of diagonal values: one
    // strided gather, then N contiguous row copies.
    for (std::size_t j = 0; j < _n; ++j)
        _colRoot[j] = reg(src, j, j);
    for (std::size_t k = 0; k < _n; ++k)
        std::memcpy(regRow(dst, k), _colRoot.data(),
                    _n * sizeof(std::uint64_t));
    ModelTime leg = treeTraversalCost();
    return replayTrees({treeStep(Ctr::LeafToRoot, Axis::Col, leg),
                        treeStep(Ctr::RootToLeaf, Axis::Col, leg),
                        countStep(Ctr::LeafToLeaf)});
}

ModelTime
OrthogonalTreesNetwork::batchCountRowsToLeaves(Reg flag, Reg dst)
{
    for (std::size_t i = 0; i < _n; ++i) {
        std::uint64_t c = _kernels->countNonzero(regRow(flag, i), _n);
        _rowRoot[i] = c;
        _kernels->fill(regRow(dst, i), _n, c);
    }
    return replayTrees(
        {treeStep(Ctr::CountLeafToRoot, Axis::Row, treeReduceCost()),
         treeStep(Ctr::RootToLeaf, Axis::Row, treeTraversalCost()),
         countStep(Ctr::CountLeafToLeaf)});
}

ModelTime
OrthogonalTreesNetwork::batchPickColByKeyIndex(Reg key, Reg src)
{
    thread_local std::vector<std::uint64_t> cnt;
    cnt.assign(_n, 0);
    _kernels->fill(_colRoot.data(), _n, kNull);
    for (std::size_t k = 0; k < _n; ++k)
        _kernels->scatterEqIndexRow(_colRoot.data(), cnt.data(),
                                    regRow(key, k), regRow(src, k), _n);
    for (std::size_t j = 0; j < _n; ++j)
        assert(cnt[j] <= 1 &&
               "LEAFTOROOT requires a unique source leaf");
    return replayTrees(
        {treeStep(Ctr::LeafToRoot, Axis::Col, treeTraversalCost())});
}

ModelTime
OrthogonalTreesNetwork::batchCompareRank(Reg a, Reg b, Reg flag)
{
    for (std::size_t i = 0; i < _n; ++i)
        _kernels->cmpRankRow(regRow(flag, i), regRow(a, i),
                             regRow(b, i), _n, i);
    return chargeBaseOp(_cost.bitSerialOp());
}

ModelTime
OrthogonalTreesNetwork::batchSelectValAtKeyIndex(Reg key, Reg val, Reg out)
{
    for (std::size_t i = 0; i < _n; ++i)
        _kernels->selectEqIndexRow(regRow(out, i), regRow(key, i),
                                   regRow(val, i), _n);
    return chargeBaseOp(_cost.bitSerialOp());
}

} // namespace ot::otn
