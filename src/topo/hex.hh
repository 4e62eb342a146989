/**
 * @file
 * The hexagonal systolic array of Kung & Leiserson [15] — the paper's
 * Section I cites it alongside the mesh as the "low chip area but
 * large time" class, and Table II's mesh row rests on its
 * O(N^2)-area, O(N)-time matrix multiplication.
 *
 * The classic hex array pipes the three matrices A, B and C through a
 * rhombus of N^2 multiply-accumulate cells along three wavefronts 60
 * degrees apart; every cell performs c += a * b as the operands meet.
 * One result diagonal emerges per systolic beat, so a full N x N
 * product takes Theta(N) beats after a Theta(N) fill.  All wires are
 * nearest-neighbour, so like the mesh it is insensitive to the wire
 * delay model.
 *
 * The simulation keeps the cells' dataflow (skewed operand injection,
 * beat-by-beat propagation) and charges one multiply-accumulate plus
 * one hop per beat.
 */

#pragma once

#include <cstdint>

#include "layout/baseline_layouts.hh"
#include "linalg/matrix.hh"
#include "sim/time_accountant.hh"
#include "topo/machine.hh"
#include "trace/tracer.hh"

namespace ot::topo {

/** An N x N hexagonal systolic array ("hex"). */
class HexMachine final : public Machine
{
  public:
    /** Any n; the array side rounds up to a power of two. */
    explicit HexMachine(const MachineSpec &spec);

    void reset() override { _acct.reset(); }
    /** N^2 cells of Theta(word) footprint. */
    std::uint64_t area() const override { return _layout.metrics().area(); }
    std::uint64_t steps() const override { return _acct.steps(); }
    ModelTime now() const override { return _acct.now(); }
    void charge(ModelTime dt) override { _acct.advance(dt); }
    void setTracer(trace::Tracer *tracer) override
    {
        _acct.setTracer(tracer);
    }

    ModelTime exchangeStepCost(std::size_t dist) const override;
    ModelTime broadcastCost() const override;
    ModelTime reduceCost() const override;

    /** C = A * B through the systolic pipe (n = a.rows() <= side). */
    MatMulRun runMatMul(const linalg::IntMatrix &a,
                        const linalg::IntMatrix &b) override;
    /** The Boolean (AND/OR) product through the same pipe. */
    MatMulRun runBoolMatMul(const linalg::BoolMatrix &a,
                            const linalg::BoolMatrix &b) override;

  private:
    /** One systolic beat: a hop on nearest-neighbour wires plus the
     *  multiply-accumulate. */
    ModelTime beatCost() const;

    /** 3n - 2 wavefront beats, each firing mac(c(i, j), i, k, j) on
     *  the plane i + j + k = t, then the drain. */
    template <class Mac>
    MatMulRun wavefront(std::size_t n, Mac mac);

    /** Array side (power of two). */
    std::size_t _side;
    layout::MeshLayout _layout; // hex cells on a grid: same metrics class
    sim::TimeAccountant _acct;
};

} // namespace ot::topo
