#include "otc/network.hh"

#include <array>
#include <cstring>

#include "vlsi/bitmath.hh"

namespace ot::otc {

namespace {

/** Trace addressing of one per-tree-of-cycles primitive. */
sim::ChainEngine::SpanArgs
treeSpan(Axis axis, std::size_t idx, std::size_t k, std::uint64_t words)
{
    sim::ChainEngine::SpanArgs args;
    args.axis = axis == Axis::Row ? trace::TraceAxis::Row
                                  : trace::TraceAxis::Col;
    args.tree = static_cast<std::int64_t>(idx);
    args.levels = vlsi::logCeilAtLeast1(k);
    args.words = words;
    return args;
}

/** Stat name of each OtcNetwork::Ctr. */
constexpr const char *kCounterNames[] = {
    "otc.rootToCycle",
    "otc.cycleToRoot",
    "otc.sumCycleToRoot",
    "otc.minCycleToRoot",
    "otc.cycleToCycle",
    "otc.sumCycleToCycle",
    "otc.minCycleToCycle",
    "otc.circulate",
    "otc.vectorCirculate",
    "otc.baseOp",
};

} // namespace

OtcNetwork::OtcNetwork(std::size_t cycles_per_side, unsigned cycle_len,
                       const CostModel &cost)
    : _k(vlsi::nextPow2(cycles_per_side ? cycles_per_side : 1)),
      _l(cycle_len ? cycle_len : 1),
      _cost(cost),
      _layout(_k, _l, cost.word().bits()),
      _engine(_acct, _stats),
      _backend(simd::activeBackend()),
      _kernels(&simd::kernelsFor(_backend)),
      _regs(otn::kNumRegs, simd::Grid{_k, _l}),
      _rowStream(_k, std::vector<std::uint64_t>(_l, kNull)),
      _colStream(_k, std::vector<std::uint64_t>(_l, kNull))
{
    _treeTraversalCost = _cost.wordAlongPath(_layout.tree().pathEdges());
    // Bounded by the wrap-around wire of the cycle plus the bit-serial
    // word shift.
    std::array<vlsi::WireLength, 1> wrap{_layout.cycleWrapLength()};
    _circulateCost = _cost.wordAlongPath(wrap);
    // L words pipelined O(log N) apart through one tree traversal,
    // interleaved with the circulations that position them.
    _streamCost = CostModel::pipelineTotal(_treeTraversalCost, _l,
                                           _cost.wordSeparation()) +
                  _circulateCost;
    // Same pipeline with per-node combining.
    _reduceStreamCost =
        CostModel::pipelineTotal(_cost.reducePath(_layout.tree().pathEdges()),
                                 _l, _cost.wordSeparation()) +
        _circulateCost;
}

void
OtcNetwork::fillReg(Reg r, std::uint64_t value)
{
    const auto p = static_cast<unsigned>(r);
    _kernels->fill(_regs.overwrite(p, false, *_kernels),
                   std::size_t{_k} * _k * _l, value);
}

const std::uint64_t *
OtcNetwork::readCycle(Reg r, std::size_t i, std::size_t j,
                      std::uint64_t *buf) const
{
    return _regs.cell(static_cast<unsigned>(r), i, j, buf);
}

sim::Counter &
OtcNetwork::counter(Ctr c)
{
    static_assert(std::size(kCounterNames) ==
                  static_cast<std::size_t>(Ctr::Count));
    sim::Counter *&slot = _counters[static_cast<std::size_t>(c)];
    if (!slot)
        slot = &_engine.counter(kCounterNames[static_cast<unsigned>(c)]);
    return *slot;
}

ModelTime
OtcNetwork::chargeStream(Ctr c, const char *span, ModelTime dt, Axis axis,
                         std::size_t idx)
{
    ++counter(c);
    _engine.traceSpan("otc", span, dt, treeSpan(axis, idx, _k, _l));
    charge(dt);
    return dt;
}

ModelTime
OtcNetwork::circulate(std::size_t i, std::size_t j,
                      const std::vector<Reg> &regs)
{
    // R(q) := R((q+1) mod L): contents move one position down.  The
    // cycle's stream is one contiguous L-word plane segment.
    for (Reg r : regs)
        _kernels->rotateCycles(regPlane(r) + (i * _k + j) * _l, 1, 0, _l);
    ++counter(Ctr::Circulate);
    ModelTime dt = circulateCost();
    _engine.traceSpan("otc", "circulate", dt, {});
    charge(dt);
    return dt;
}

ModelTime
OtcNetwork::vectorCirculate(Axis axis, std::size_t idx,
                            const std::vector<Reg> &regs)
{
    // A row's K cycle streams are contiguous (stride L); a column's
    // are strided by a whole row (K*L).
    for (Reg r : regs) {
        std::uint64_t *plane = regPlane(r);
        if (axis == Axis::Row)
            _kernels->rotateCycles(plane + idx * _k * _l, _k, _l, _l);
        else
            _kernels->rotateCycles(plane + idx * _l, _k,
                                   std::size_t{_k} * _l, _l);
    }
    return chargeVectorCirculate(axis, idx);
}

ModelTime
OtcNetwork::chargeVectorCirculate(Axis axis, std::size_t idx)
{
    // All K cycles of the vector shift concurrently: one circulate's
    // cost is charged, not K.
    ModelTime dt = circulateCost();
    counter(Ctr::Circulate) += _k;
    trace::Tracer *tracer = _engine.tracer();
    if (tracer && tracer->enabled()) {
        // The per-cycle circulate spans, uncharged, at the offsets the
        // K circulate calls would stamp.
        _engine.runUncharged([&] {
            for (std::size_t c = 0; c < _k; ++c) {
                _engine.traceSpan("otc", "circulate", dt, {});
                charge(dt);
            }
        });
    }
    ++counter(Ctr::VectorCirculate);
    _engine.traceSpan("otc", "vectorCirculate", dt,
                      treeSpan(axis, idx, _k, 0));
    charge(dt);
    return dt;
}

void
OtcNetwork::moveRootToCycle(Axis axis, std::size_t idx,
                            const CycleSelector &sel, Reg dest)
{
    // Functionally: word q of the root stream lands in BP(q) of every
    // selected cycle (the paper's pipedo of ROOTTOLEAF +
    // VECTORCIRCULATE converges to exactly this placement).
    const std::uint64_t *stream = rootStream(axis, idx);
    for (std::size_t c = 0; c < _k; ++c) {
        auto [i, j] = cycleAddr(axis, idx, c);
        if (!sel.matches(i, j))
            continue;
        std::memcpy(regPlane(dest) + (i * _k + j) * _l, stream,
                    _l * sizeof(std::uint64_t));
    }
}

void
OtcNetwork::moveCycleToRoot(Axis axis, std::size_t idx,
                            const CycleSelector &sel, Reg src)
{
    std::uint64_t *stream = rootStream(axis, idx);
    [[maybe_unused]] unsigned selected = 0;
    for (std::size_t c = 0; c < _k; ++c) {
        auto [i, j] = cycleAddr(axis, idx, c);
        if (!sel.matches(i, j))
            continue;
        ++selected;
        const std::uint64_t *words = readCycle(src, i, j, stream);
        if (words != stream)
            std::memcpy(stream, words, _l * sizeof(std::uint64_t));
    }
    assert(selected <= 1 && "CYCLETOROOT requires a unique source cycle");
    if (selected == 0)
        _kernels->fill(stream, _l, kNull);
}

void
OtcNetwork::reduceToRoot(Axis axis, std::size_t idx,
                         const CycleSelector &sel, Reg src, ReduceOp op)
{
    // Sum (mod 2^64) and min are associative and commutative, so
    // accumulating the selected cycles one after another equals the
    // machine's pairwise tree combining bit for bit.
    std::uint64_t *stream = rootStream(axis, idx);
    _kernels->fill(stream, _l, op == ReduceOp::Sum ? 0 : kNull);
    const simd::AccumRowFn accum =
        op == ReduceOp::Sum ? _kernels->accumSumRow : _kernels->accumMinRow;
    thread_local std::vector<std::uint64_t> buf;
    buf.resize(_l);
    for (std::size_t c = 0; c < _k; ++c) {
        auto [i, j] = cycleAddr(axis, idx, c);
        if (sel.matches(i, j))
            accum(stream, readCycle(src, i, j, buf.data()), _l);
    }
}

ModelTime
OtcNetwork::chargeRootToCycle(Axis axis, std::size_t idx)
{
    return chargeStream(Ctr::RootToCycle, "rootToCycle", streamCost(), axis,
                        idx);
}

ModelTime
OtcNetwork::chargeCycleToRoot(Axis axis, std::size_t idx)
{
    return chargeStream(Ctr::CycleToRoot, "cycleToRoot", streamCost(), axis,
                        idx);
}

ModelTime
OtcNetwork::chargeSumCycleToRoot(Axis axis, std::size_t idx)
{
    return chargeStream(Ctr::SumCycleToRoot, "sumCycleToRoot",
                        _reduceStreamCost, axis, idx);
}

ModelTime
OtcNetwork::chargeCycleToCycle(Axis axis, std::size_t idx)
{
    ModelTime dt = chargeCycleToRoot(axis, idx);
    dt += chargeRootToCycle(axis, idx);
    ++counter(Ctr::CycleToCycle);
    return dt;
}

ModelTime
OtcNetwork::chargeSumCycleToCycle(Axis axis, std::size_t idx)
{
    ModelTime dt = chargeSumCycleToRoot(axis, idx);
    dt += chargeRootToCycle(axis, idx);
    ++counter(Ctr::SumCycleToCycle);
    return dt;
}

ModelTime
OtcNetwork::rootToCycle(Axis axis, std::size_t idx, const CycleSelector &sel,
                        Reg dest)
{
    moveRootToCycle(axis, idx, sel, dest);
    return chargeRootToCycle(axis, idx);
}

ModelTime
OtcNetwork::cycleToRoot(Axis axis, std::size_t idx, const CycleSelector &sel,
                        Reg src)
{
    moveCycleToRoot(axis, idx, sel, src);
    return chargeCycleToRoot(axis, idx);
}

ModelTime
OtcNetwork::sumCycleToRoot(Axis axis, std::size_t idx,
                           const CycleSelector &sel, Reg src)
{
    reduceToRoot(axis, idx, sel, src, ReduceOp::Sum);
    return chargeSumCycleToRoot(axis, idx);
}

ModelTime
OtcNetwork::minCycleToRoot(Axis axis, std::size_t idx,
                           const CycleSelector &sel, Reg src)
{
    reduceToRoot(axis, idx, sel, src, ReduceOp::Min);
    return chargeStream(Ctr::MinCycleToRoot, "minCycleToRoot",
                        _reduceStreamCost, axis, idx);
}

ModelTime
OtcNetwork::cycleToCycle(Axis axis, std::size_t idx,
                         const CycleSelector &src_sel, Reg src,
                         const CycleSelector &dst_sel, Reg dst)
{
    moveCycleToRoot(axis, idx, src_sel, src);
    moveRootToCycle(axis, idx, dst_sel, dst);
    return chargeCycleToCycle(axis, idx);
}

ModelTime
OtcNetwork::sumCycleToCycle(Axis axis, std::size_t idx,
                            const CycleSelector &src_sel, Reg src,
                            const CycleSelector &dst_sel, Reg dst)
{
    reduceToRoot(axis, idx, src_sel, src, ReduceOp::Sum);
    moveRootToCycle(axis, idx, dst_sel, dst);
    return chargeSumCycleToCycle(axis, idx);
}

ModelTime
OtcNetwork::minCycleToCycle(Axis axis, std::size_t idx,
                            const CycleSelector &src_sel, Reg src,
                            const CycleSelector &dst_sel, Reg dst)
{
    ModelTime dt = minCycleToRoot(axis, idx, src_sel, src);
    dt += rootToCycle(axis, idx, dst_sel, dst);
    ++counter(Ctr::MinCycleToCycle);
    return dt;
}

ModelTime
OtcNetwork::baseOp(ModelTime op_cost,
                   const std::function<void(std::size_t i, std::size_t j,
                                            std::size_t q)> &op)
{
    for (std::size_t i = 0; i < _k; ++i)
        for (std::size_t j = 0; j < _k; ++j)
            for (std::size_t q = 0; q < _l; ++q)
                op(i, j, q);
    return chargeBaseOp(op_cost);
}

ModelTime
OtcNetwork::chargeBaseOp(ModelTime op_cost)
{
    ++counter(Ctr::BaseOp);
    _engine.traceSpan("otc", "baseOp", op_cost, {});
    charge(op_cost);
    return op_cost;
}

} // namespace ot::otc
