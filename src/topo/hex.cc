#include "topo/hex.hh"

#include <cassert>

#include "vlsi/bitmath.hh"

namespace ot::topo {

HexMachine::HexMachine(const MachineSpec &spec)
    : Machine(spec),
      _side(vlsi::nextPow2(spec.n ? spec.n : 1)),
      _layout(_side * _side, cost().word().bits())
{
}

ModelTime
HexMachine::beatCost() const
{
    // Nearest-neighbour word-parallel hop plus the multiply-accumulate
    // (pipelined with the hop; the MAC's serial latency hides behind
    // the systolic beat once the pipe is full, so charge the max).
    ModelTime hop = cost().edgeDelay(_layout.linkLength()) + 1;
    return hop + 1;
}

ModelTime
HexMachine::exchangeStepCost(std::size_t dist) const
{
    // Nearest-neighbour routing on the N x N cell rhombus.
    const std::size_t hops = dist < _side ? dist : dist / _side;
    return 2 * hops * beatCost() + cost().bitSerialOp();
}

ModelTime
HexMachine::broadcastCost() const
{
    return 2 * _side * beatCost();
}

ModelTime
HexMachine::reduceCost() const
{
    return 2 * _side * beatCost() + cost().bitSerialOp();
}

template <class Mac>
MatMulRun
HexMachine::wavefront(std::size_t m, Mac mac)
{
    assert(m <= _side && "hex: operands exceed the array");
    const ModelTime start = now();
    sim::ScopedPhase phase(_acct, "hex-matmul");
    MatMulRun r;
    r.product = linalg::IntMatrix(m, m, 0);

    // Wavefront schedule: at systolic beat t, every cell on the plane
    // i + j + k = t fires its multiply-accumulate — this is exactly
    // when the skewed a(i, k), b(k, j) and c(i, j) streams meet in the
    // hex array.  3m - 2 beats drain the whole product.
    for (std::size_t t = 0; t <= 3 * (m - 1); ++t) {
        for (std::size_t i = 0; i < m && i <= t; ++i)
            for (std::size_t j = 0; j + i <= t && j < m; ++j) {
                std::size_t k = t - i - j;
                if (k < m)
                    mac(r.product(i, j), i, k, j);
            }
        charge(beatCost());
    }
    // Final word drain out of the array boundary.
    charge(cost().wordSeparation());
    r.time = now() - start;
    return r;
}

MatMulRun
HexMachine::runMatMul(const linalg::IntMatrix &a, const linalg::IntMatrix &b)
{
    assert(a.cols() == a.rows() && b.rows() == a.rows() &&
           b.cols() == a.rows());
    return wavefront(a.rows(), [&](std::uint64_t &c, std::size_t i,
                                   std::size_t k, std::size_t j) {
        c += a(i, k) * b(k, j);
    });
}

MatMulRun
HexMachine::runBoolMatMul(const linalg::BoolMatrix &a,
                          const linalg::BoolMatrix &b)
{
    assert(a.cols() == a.rows() && b.rows() == a.rows() &&
           b.cols() == a.rows());
    return wavefront(a.rows(), [&](std::uint64_t &c, std::size_t i,
                                   std::size_t k, std::size_t j) {
        c |= (a(i, k) != 0) & (b(k, j) != 0);
    });
}

} // namespace ot::topo
