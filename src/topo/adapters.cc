#include "topo/adapters.hh"

#include <cassert>

#include "layout/otc_layout.hh"
#include "layout/otn_layout.hh"
#include "otc/sort.hh"
#include "otn/connected_components.hh"
#include "otn/matmul.hh"
#include "otn/mst.hh"
#include "otn/registers.hh"
#include "otn/shortest_paths.hh"
#include "otn/sort.hh"
#include "vlsi/bitmath.hh"

namespace ot::topo {

namespace {

/** Bring a (possibly reused) OTN back to its post-construction state. */
void
resetOtnState(otn::OrthogonalTreesNetwork &net)
{
    net.clearRegs();
    for (std::size_t i = 0; i < net.n(); ++i) {
        net.rowRoot(i) = otn::kNull;
        net.colRoot(i) = otn::kNull;
    }
    net.resetTime();
}

} // namespace

// ---------------------------------------------------------------- OTN

OtnTopoMachine::OtnTopoMachine(const MachineSpec &spec)
    : OtnTopoMachine(spec,
                     std::make_unique<otn::OrthogonalTreesNetwork>(
                         spec.n, spec.cost()))
{
}

OtnTopoMachine::OtnTopoMachine(
    const MachineSpec &spec,
    std::unique_ptr<otn::OrthogonalTreesNetwork> net)
    : Machine(spec), _net(std::move(net))
{
}

void
OtnTopoMachine::reset()
{
    resetOtnState(*_net);
}

std::uint64_t
OtnTopoMachine::area() const
{
    return _net->chipLayout().metrics().area();
}

ModelTime
OtnTopoMachine::exchangeStepCost(std::size_t dist) const
{
    // Any pair distance routes leaf -> root -> leaf through one tree.
    (void)dist;
    return 2 * _net->treeTraversalCost() + cost().bitSerialOp();
}

ModelTime
OtnTopoMachine::broadcastCost() const
{
    return _net->treeTraversalCost();
}

ModelTime
OtnTopoMachine::reduceCost() const
{
    return _net->treeReduceCost();
}

SortRun
OtnTopoMachine::runSort(const std::vector<std::uint64_t> &values)
{
    auto r = otn::sortOtn(*_net, values);
    return {std::move(r.sorted), r.time, 0};
}

MatMulRun
OtnTopoMachine::runMatMul(const linalg::IntMatrix &a,
                          const linalg::IntMatrix &b)
{
    auto r = otn::matMulPipelined(*_net, a, b);
    return {std::move(r.product), r.time, 0};
}

MatMulRun
OtnTopoMachine::runBoolMatMul(const linalg::BoolMatrix &a,
                              const linalg::BoolMatrix &b)
{
    auto r = otn::boolMatMulPipelined(*_net, a, b);
    return {std::move(r.product), r.time, 0};
}

CcRun
OtnTopoMachine::runConnectedComponents(const graph::Graph &g)
{
    auto r = otn::connectedComponentsOtn(*_net, g);
    return {std::move(r.labels), r.time, 0};
}

MstRun
OtnTopoMachine::runMst(const graph::WeightedGraph &g)
{
    auto r = otn::mstOtn(*_net, g);
    return {std::move(r.edges), r.time, 0, r.iterations};
}

SsspRun
OtnTopoMachine::runShortestPaths(const graph::WeightedGraph &g,
                                 std::size_t src)
{
    auto r = otn::ssspOtn(*_net, g, src);
    return {std::move(r.dist), r.time, 0, r.rounds};
}

// ------------------------------------------------------------ OTC-emu

OtcEmulatedTopoMachine::OtcEmulatedTopoMachine(const MachineSpec &spec)
    : OtnTopoMachine(spec,
                     std::make_unique<otc::OtcEmulatedOtn>(
                         spec.n, spec.cost(), spec.cycleLen)),
      _emu(static_cast<otc::OtcEmulatedOtn *>(_net.get()))
{
    assert(spec.cycleLen >= 1 && "otc-emu: cycle length not set");
}

std::uint64_t
OtcEmulatedTopoMachine::area() const
{
    return _emu->otcLayout().metrics().area();
}

MatMulRun
OtcEmulatedTopoMachine::runBoolMatMul(const linalg::BoolMatrix &a,
                                      const linalg::BoolMatrix &b)
{
    // Time: the replicated-block machine of Table II (one vector
    // product per row of A, all concurrent), driven at the OTC's
    // streamed rates.
    auto r = otn::boolMatMulReplicated(*_net, a, b);
    // Area: N^2/log^2 N cycles per side, cycles of log^2 N one-bit BPs
    // packed O(log N) x O(log N) (Section VI-B) — total
    // O(N^4 / log^2 N).
    const unsigned logn = vlsi::logCeilAtLeast1(n());
    layout::OtcLayout chip(vlsi::ceilDiv(n() * n(), logn * logn),
                           logn * logn, /*word_bits=*/1,
                           /*compact_bps=*/true);
    return {std::move(r.product), r.time, chip.metrics().area()};
}

// ---------------------------------------------------------- OTC native

OtcNativeTopoMachine::OtcNativeTopoMachine(const MachineSpec &spec)
    : Machine(spec)
{
    assert(spec.cycleLen >= 1 && "otc: cycle length not set");
    // Ceiling division: floor would under-provision when L does not
    // divide N (n=8, L=3 needs 3 cycles per row, not 2); nextPow2 in
    // the network constructor makes both roundings identical at every
    // other power-of-two size, so cached model times are unchanged.
    _net = std::make_unique<otc::OtcNetwork>(
        vlsi::ceilDiv(spec.n, spec.cycleLen), spec.cycleLen, spec.cost());
}

void
OtcNativeTopoMachine::reset()
{
    otc::OtcNetwork &net = *_net;
    net.clearRegs();
    for (std::size_t i = 0; i < net.k(); ++i) {
        net.rowStream(i).assign(net.cycleLen(), otn::kNull);
        net.colStream(i).assign(net.cycleLen(), otn::kNull);
    }
    net.resetTime();
}

std::uint64_t
OtcNativeTopoMachine::area() const
{
    return _net->chipLayout().metrics().area();
}

ModelTime
OtcNativeTopoMachine::exchangeStepCost(std::size_t dist) const
{
    // Leaf cycle -> row tree -> partner cycle, plus one CIRCULATE to
    // line the partner word up within its cycle.
    (void)dist;
    return 2 * _net->treeTraversalCost() + _net->circulateCost() +
           cost().bitSerialOp();
}

ModelTime
OtcNativeTopoMachine::broadcastCost() const
{
    return _net->treeTraversalCost() + _net->circulateCost();
}

ModelTime
OtcNativeTopoMachine::reduceCost() const
{
    return _net->treeTraversalCost() + _net->streamCost();
}

SortRun
OtcNativeTopoMachine::runSort(const std::vector<std::uint64_t> &values)
{
    auto r = otc::sortOtc(*_net, values);
    return {std::move(r.sorted), r.time, 0};
}

// ---------------------------------------------------------------- mesh

MeshTopoMachine::MeshTopoMachine(const MachineSpec &spec) : Machine(spec)
{
    _pe.emplace(spec.n, cost());
}

void
MeshTopoMachine::reset()
{
    _pe.emplace(spec().n, cost());
    _grid.reset();
    if (_tracer)
        _pe->acct().setTracer(_tracer);
}

std::uint64_t
MeshTopoMachine::area() const
{
    return _pe->chipLayout().metrics().area();
}

std::uint64_t
MeshTopoMachine::steps() const
{
    return _pe->acct().steps() + (_grid ? _grid->acct().steps() : 0);
}

void
MeshTopoMachine::setTracer(trace::Tracer *tracer)
{
    _tracer = tracer;
    _pe->acct().setTracer(tracer);
    if (_grid)
        _grid->acct().setTracer(tracer);
}

baselines::MeshMachine &
MeshTopoMachine::grid()
{
    if (!_grid) {
        _grid = std::make_unique<baselines::MeshMachine>(spec().n * spec().n,
                                                         cost());
        if (_tracer)
            _grid->acct().setTracer(_tracer);
    }
    return *_grid;
}

ModelTime
MeshTopoMachine::exchangeStepCost(std::size_t dist) const
{
    // The Thompson-Kung routing: distance d is d hops within a row or
    // d / side hops across rows, there and back.
    const std::size_t side = _pe->side();
    const std::size_t hops = dist < side ? dist : dist / side;
    return 2 * hops * _pe->hopCost() + cost().bitSerialOp();
}

ModelTime
MeshTopoMachine::broadcastCost() const
{
    // Corner to corner: the mesh diameter on word-parallel links.
    return 2 * _pe->side() * _pe->hopCost();
}

ModelTime
MeshTopoMachine::reduceCost() const
{
    return 2 * _pe->side() * _pe->hopCost() + cost().bitSerialOp();
}

SortRun
MeshTopoMachine::runSort(const std::vector<std::uint64_t> &values)
{
    auto r = baselines::meshSort(*_pe, values);
    return {std::move(r.sorted), r.time, 0};
}

MatMulRun
MeshTopoMachine::runMatMul(const linalg::IntMatrix &a,
                           const linalg::IntMatrix &b)
{
    baselines::MeshMachine &m = grid();
    auto r = baselines::meshMatMul(m, a, b);
    return {std::move(r.product), r.time, m.chipLayout().metrics().area()};
}

MatMulRun
MeshTopoMachine::runBoolMatMul(const linalg::BoolMatrix &a,
                               const linalg::BoolMatrix &b)
{
    baselines::MeshMachine &m = grid();
    auto r = baselines::meshBoolMatMul(m, a, b);
    return {std::move(r.product), r.time, m.chipLayout().metrics().area()};
}

CcRun
MeshTopoMachine::runConnectedComponents(const graph::Graph &g)
{
    baselines::MeshMachine &m = grid();
    auto r = baselines::meshConnectedComponents(m, g);
    return {std::move(r.labels), r.time, m.chipLayout().metrics().area()};
}

// ----------------------------------------------------------------- psn

PsnTopoMachine::PsnTopoMachine(const MachineSpec &spec) : Machine(spec)
{
    _m.emplace(spec.n, cost());
}

void
PsnTopoMachine::reset()
{
    _m.emplace(spec().n, cost());
    if (_tracer)
        _m->acct().setTracer(_tracer);
}

std::uint64_t
PsnTopoMachine::area() const
{
    return _m->chipLayout().metrics().area();
}

void
PsnTopoMachine::setTracer(trace::Tracer *tracer)
{
    _tracer = tracer;
    _m->acct().setTracer(tracer);
}

ModelTime
PsnTopoMachine::exchangeStepCost(std::size_t dist) const
{
    // Stone's realization: shuffle until the distance bit reaches the
    // LSB (log N shuffles in the worst case), then exchange.
    (void)dist;
    return _m->addressBits() * _m->shuffleStepCost() +
           _m->exchangeStepCost();
}

ModelTime
PsnTopoMachine::broadcastCost() const
{
    // Recursive doubling over the shuffle-exchange pair.
    return _m->addressBits() *
           (_m->shuffleStepCost() + _m->exchangeStepCost());
}

ModelTime
PsnTopoMachine::reduceCost() const
{
    return broadcastCost();
}

SortRun
PsnTopoMachine::runSort(const std::vector<std::uint64_t> &values)
{
    auto r = baselines::psnSort(*_m, values);
    return {std::move(r.sorted), r.time, 0};
}

// ----------------------------------------------------------------- ccc

CccTopoMachine::CccTopoMachine(const MachineSpec &spec) : Machine(spec)
{
    _m.emplace(spec.n, cost());
}

void
CccTopoMachine::reset()
{
    _m.emplace(spec().n, cost());
    if (_tracer)
        _m->acct().setTracer(_tracer);
}

std::uint64_t
CccTopoMachine::area() const
{
    return _m->chipLayout().metrics().area();
}

void
CccTopoMachine::setTracer(trace::Tracer *tracer)
{
    _tracer = tracer;
    _m->acct().setTracer(tracer);
}

ModelTime
CccTopoMachine::exchangeStepCost(std::size_t dist) const
{
    // One DESCEND step: a cube wire plus a cycle rotation.
    (void)dist;
    return _m->cubeStepCost() + _m->cycleStepCost();
}

ModelTime
CccTopoMachine::broadcastCost() const
{
    return _m->dims() * (_m->cubeStepCost() + _m->cycleStepCost());
}

ModelTime
CccTopoMachine::reduceCost() const
{
    return broadcastCost();
}

SortRun
CccTopoMachine::runSort(const std::vector<std::uint64_t> &values)
{
    auto r = baselines::cccSort(*_m, values);
    return {std::move(r.sorted), r.time, 0};
}

// ---------------------------------------------------------------- tree

TreeTopoMachine::TreeTopoMachine(const MachineSpec &spec) : Machine(spec)
{
    _m.emplace(spec.n, cost());
}

void
TreeTopoMachine::reset()
{
    _m.emplace(spec().n, cost());
    if (_tracer)
        _m->acct().setTracer(_tracer);
}

std::uint64_t
TreeTopoMachine::area() const
{
    return _m->chipArea();
}

void
TreeTopoMachine::setTracer(trace::Tracer *tracer)
{
    _tracer = tracer;
    _m->acct().setTracer(tracer);
}

ModelTime
TreeTopoMachine::exchangeStepCost(std::size_t dist) const
{
    // Every exchange serializes through the one root: leaf -> root ->
    // leaf, whatever the distance.
    (void)dist;
    return 2 * _m->traversalCost() + cost().bitSerialOp();
}

ModelTime
TreeTopoMachine::broadcastCost() const
{
    return _m->traversalCost();
}

ModelTime
TreeTopoMachine::reduceCost() const
{
    return _m->combineCost();
}

SortRun
TreeTopoMachine::runSort(const std::vector<std::uint64_t> &values)
{
    SortRun r;
    const ModelTime t0 = now();
    r.sorted = _m->extractMinSort(values);
    r.time = now() - t0;
    return r;
}

// ----------------------------------------------------------------- hex

HexTopoMachine::HexTopoMachine(const MachineSpec &spec) : Machine(spec)
{
    _m.emplace(spec.n, cost());
}

void
HexTopoMachine::reset()
{
    _m.emplace(spec().n, cost());
    if (_tracer)
        _m->acct().setTracer(_tracer);
}

std::uint64_t
HexTopoMachine::area() const
{
    return _m->chipArea();
}

void
HexTopoMachine::setTracer(trace::Tracer *tracer)
{
    _tracer = tracer;
    _m->acct().setTracer(tracer);
}

ModelTime
HexTopoMachine::exchangeStepCost(std::size_t dist) const
{
    // Nearest-neighbour routing on the N x N cell rhombus.
    const std::size_t side = _m->n();
    const std::size_t hops = dist < side ? dist : dist / side;
    return 2 * hops * _m->beatCost() + cost().bitSerialOp();
}

ModelTime
HexTopoMachine::broadcastCost() const
{
    return 2 * _m->n() * _m->beatCost();
}

ModelTime
HexTopoMachine::reduceCost() const
{
    return 2 * _m->n() * _m->beatCost() + cost().bitSerialOp();
}

MatMulRun
HexTopoMachine::runMatMul(const linalg::IntMatrix &a,
                          const linalg::IntMatrix &b)
{
    MatMulRun r;
    const ModelTime t0 = now();
    r.product = _m->matMul(a, b);
    r.time = now() - t0;
    return r;
}

MatMulRun
HexTopoMachine::runBoolMatMul(const linalg::BoolMatrix &a,
                              const linalg::BoolMatrix &b)
{
    MatMulRun r;
    const ModelTime t0 = now();
    auto p = _m->boolMatMul(a, b);
    r.time = now() - t0;
    r.product = linalg::IntMatrix(p.rows(), p.cols(), 0);
    for (std::size_t i = 0; i < p.rows(); ++i)
        for (std::size_t j = 0; j < p.cols(); ++j)
            r.product(i, j) = p(i, j) ? 1 : 0;
    return r;
}

} // namespace ot::topo
