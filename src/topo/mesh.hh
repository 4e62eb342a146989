/**
 * @file
 * The mesh (Tables I-IV reference rows).
 *
 * The mesh is the "low area, high time" class of Section I: short
 * wires only, so its time is unaffected by the delay model
 * (Section VII-D), but sorting takes Theta(sqrt N) and matrix problems
 * Theta(N).
 *
 *  - Sorting: Batcher's bitonic network with compare-exchanges at
 *    linear distance d realised by d (within-row) or d/K (across-row)
 *    nearest-neighbour routing hops — the Thompson-Kung scheme [32].
 *    The geometric series of merge distances telescopes to Theta(K) =
 *    Theta(sqrt N) total hops.
 *  - Matrix multiplication: Cannon's algorithm, N shift-multiply
 *    rounds on an N x N processor grid.
 *  - Connected components: repeated Boolean squaring of (A + I) on the
 *    Cannon grid (log N squarings, O(N) each), then a min-label pass —
 *    Theta(N log N), one log above the Levitt-Kautz cellular bound
 *    [17] the paper cites (see EXPERIMENTS.md).
 *
 * The Boolean products (boolmm and the closure's squarings) are
 * computed host-side on rows packed 64 cells to a word
 * (linalg::BitMatrix), and the closure stays packed across its
 * squarings.  Every Cannon multiply, integer or Boolean, charges the
 * same steps: the initial skew route, then per rotation step one
 * multiply-accumulate and one hop.
 *
 * The sort runs on the sqrt(N) x sqrt(N) machine the spec builds; the
 * matrix and graph problems run on the N^2-processor Cannon grid and
 * report its area as the run's chip.  Both grids charge one clock.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hh"
#include "layout/baseline_layouts.hh"
#include "linalg/bit_matrix.hh"
#include "linalg/matrix.hh"
#include "sim/time_accountant.hh"
#include "topo/machine.hh"
#include "trace/tracer.hh"

namespace ot::topo {

/** A mesh with word-parallel links ("mesh", Thompson-Kung + Cannon). */
class MeshMachine final : public Machine
{
  public:
    /** Any n >= 1; the grids round their sides up to powers of two. */
    explicit MeshMachine(const MachineSpec &spec);

    /** Side of the sort machine's processor grid. */
    std::size_t side() const { return _pe.side(); }

    /** Cost of moving one word to a 4-neighbour (word-parallel link). */
    ModelTime hopCost() const;

    void reset() override { _acct.reset(); }
    std::uint64_t area() const override { return _pe.metrics().area(); }
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

    SortRun runSort(const std::vector<std::uint64_t> &values) override;
    /** Cannon's algorithm on the grid (n = a.rows() <= spec n). */
    MatMulRun runMatMul(const linalg::IntMatrix &a,
                        const linalg::IntMatrix &b) override;
    /** Boolean Cannon (AND/OR semiring). */
    MatMulRun runBoolMatMul(const linalg::BoolMatrix &a,
                            const linalg::BoolMatrix &b) override;
    /** Components via Boolean closure on the grid. */
    CcRun runConnectedComponents(const graph::Graph &g) override;

  private:
    /** Charge `hops` routing steps plus a compare/ALU op. */
    void chargeRoute(std::uint64_t hops);

    /** Charge one n x n Cannon multiply: the skew route, then n steps
     *  of multiply-accumulate plus one rotation hop. */
    void chargeCannon(std::size_t n);

    /** Cannon's algorithm over (+, *). */
    linalg::IntMatrix cannon(const linalg::IntMatrix &a,
                             const linalg::IntMatrix &b);

    /** Cannon's algorithm over (OR, AND), on packed rows. */
    linalg::BitMatrix boolCannon(const linalg::BitMatrix &a,
                                 const linalg::BitMatrix &b);

    /** The sqrt(N) x sqrt(N) sort machine. */
    layout::MeshLayout _pe;
    /** The N^2-processor Cannon grid. */
    layout::MeshLayout _grid;
    sim::TimeAccountant _acct;
};

} // namespace ot::topo
