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

} // namespace ot::topo
