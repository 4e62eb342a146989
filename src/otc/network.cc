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
      _regs(otn::kNumRegs, _k * _k * _l),
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
    _kernels->fill(regPlane(r), std::size_t{_k} * _k * _l, value);
}

std::uint64_t &
OtcNetwork::rootStream(Axis axis, std::size_t idx, std::size_t q)
{
    assert(idx < _k && q < _l);
    return axis == Axis::Row ? _rowStream[idx][q] : _colStream[idx][q];
}

ModelTime
OtcNetwork::circulate(std::size_t i, std::size_t j,
                      const std::vector<Reg> &regs)
{
    // R(q) := R((q+1) mod L): contents move one position down.  The
    // cycle's stream is one contiguous L-word plane segment.
    for (Reg r : regs)
        _kernels->rotateCycles(regPlane(r) + (i * _k + j) * _l, 1, 0, _l);
    ++_engine.counter("otc.circulate");
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
    _engine.counter("otc.circulate") += _k;
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
    ++_engine.counter("otc.vectorCirculate");
    _engine.traceSpan("otc", "vectorCirculate", dt,
                      treeSpan(axis, idx, _k, 0));
    charge(dt);
    return dt;
}

ModelTime
OtcNetwork::rootToCycle(Axis axis, std::size_t idx, const CycleSelector &sel,
                        Reg dest)
{
    // Functionally: word q of the root stream lands in BP(q) of every
    // selected cycle (the paper's pipedo of ROOTTOLEAF +
    // VECTORCIRCULATE converges to exactly this placement).
    const std::uint64_t *stream =
        axis == Axis::Row ? _rowStream[idx].data() : _colStream[idx].data();
    for (std::size_t c = 0; c < _k; ++c) {
        auto [i, j] = cycleAddr(axis, idx, c);
        if (!sel.matches(i, j))
            continue;
        std::memcpy(regPlane(dest) + (i * _k + j) * _l, stream,
                    _l * sizeof(std::uint64_t));
    }
    ++_engine.counter("otc.rootToCycle");
    ModelTime dt = streamCost();
    _engine.traceSpan("otc", "rootToCycle", dt,
                      treeSpan(axis, idx, _k, _l));
    charge(dt);
    return dt;
}

ModelTime
OtcNetwork::cycleToRoot(Axis axis, std::size_t idx, const CycleSelector &sel,
                        Reg src)
{
    std::uint64_t *stream =
        axis == Axis::Row ? _rowStream[idx].data() : _colStream[idx].data();
    [[maybe_unused]] unsigned selected = 0;
    for (std::size_t c = 0; c < _k; ++c) {
        auto [i, j] = cycleAddr(axis, idx, c);
        if (!sel.matches(i, j))
            continue;
        ++selected;
        std::memcpy(stream, regPlane(src) + (i * _k + j) * _l,
                    _l * sizeof(std::uint64_t));
    }
    assert(selected <= 1 && "CYCLETOROOT requires a unique source cycle");
    if (selected == 0)
        _kernels->fill(stream, _l, kNull);
    ++_engine.counter("otc.cycleToRoot");
    ModelTime dt = streamCost();
    _engine.traceSpan("otc", "cycleToRoot", dt,
                      treeSpan(axis, idx, _k, _l));
    charge(dt);
    return dt;
}

ModelTime
OtcNetwork::reduceToRoot(Axis axis, std::size_t idx,
                         const CycleSelector &sel, Reg src, ReduceOp op)
{
    // Sum (mod 2^64) and min are associative, so the kernel's linear
    // reduction over the gathered level buffer equals the machine's
    // pairwise tree combining bit for bit.
    const std::uint64_t identity = op == ReduceOp::Sum ? 0 : kNull;
    thread_local std::vector<std::uint64_t> level;
    level.resize(_k);
    for (std::size_t q = 0; q < _l; ++q) {
        for (std::size_t c = 0; c < _k; ++c) {
            auto [i, j] = cycleAddr(axis, idx, c);
            level[c] = sel.matches(i, j) ? reg(src, i, j, q) : identity;
        }
        rootStream(axis, idx, q) =
            op == ReduceOp::Sum ? _kernels->reduceSum(level.data(), _k)
                                : _kernels->reduceMin(level.data(), _k);
    }
    ModelTime dt = _reduceStreamCost;
    charge(dt);
    return dt;
}

ModelTime
OtcNetwork::sumCycleToRoot(Axis axis, std::size_t idx,
                           const CycleSelector &sel, Reg src)
{
    ++_engine.counter("otc.sumCycleToRoot");
    _engine.traceSpan("otc", "sumCycleToRoot", _reduceStreamCost,
                      treeSpan(axis, idx, _k, _l));
    return reduceToRoot(axis, idx, sel, src, ReduceOp::Sum);
}

ModelTime
OtcNetwork::minCycleToRoot(Axis axis, std::size_t idx,
                           const CycleSelector &sel, Reg src)
{
    ++_engine.counter("otc.minCycleToRoot");
    _engine.traceSpan("otc", "minCycleToRoot", _reduceStreamCost,
                      treeSpan(axis, idx, _k, _l));
    return reduceToRoot(axis, idx, sel, src, ReduceOp::Min);
}

ModelTime
OtcNetwork::cycleToCycle(Axis axis, std::size_t idx,
                         const CycleSelector &src_sel, Reg src,
                         const CycleSelector &dst_sel, Reg dst)
{
    ModelTime dt = cycleToRoot(axis, idx, src_sel, src);
    dt += rootToCycle(axis, idx, dst_sel, dst);
    ++_engine.counter("otc.cycleToCycle");
    return dt;
}

ModelTime
OtcNetwork::sumCycleToCycle(Axis axis, std::size_t idx,
                            const CycleSelector &src_sel, Reg src,
                            const CycleSelector &dst_sel, Reg dst)
{
    ModelTime dt = sumCycleToRoot(axis, idx, src_sel, src);
    dt += rootToCycle(axis, idx, dst_sel, dst);
    ++_engine.counter("otc.sumCycleToCycle");
    return dt;
}

ModelTime
OtcNetwork::minCycleToCycle(Axis axis, std::size_t idx,
                            const CycleSelector &src_sel, Reg src,
                            const CycleSelector &dst_sel, Reg dst)
{
    ModelTime dt = minCycleToRoot(axis, idx, src_sel, src);
    dt += rootToCycle(axis, idx, dst_sel, dst);
    ++_engine.counter("otc.minCycleToCycle");
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
    ++_engine.counter("otc.baseOp");
    _engine.traceSpan("otc", "baseOp", op_cost, {});
    charge(op_cost);
    return op_cost;
}

} // namespace ot::otc
