/**
 * @file
 * The mesh baseline (Tables I-IV reference rows).
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
 *    Cannon engine (log N squarings, O(N) each), then a min-label
 *    pass — Theta(N log N), one log above the Levitt-Kautz cellular
 *    bound [17] the paper cites (see EXPERIMENTS.md).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hh"
#include "layout/baseline_layouts.hh"
#include "linalg/matrix.hh"
#include "sim/stats.hh"
#include "sim/time_accountant.hh"
#include "vlsi/cost_model.hh"

namespace ot::baselines {

using vlsi::CostModel;
using vlsi::ModelTime;

/** A sqrt(P) x sqrt(P) mesh machine with word-parallel links. */
class MeshMachine
{
  public:
    MeshMachine(std::size_t processors, const CostModel &cost);

    std::size_t side() const { return _layout.side(); }
    const CostModel &cost() const { return _cost; }
    const layout::MeshLayout &chipLayout() const { return _layout; }
    sim::TimeAccountant &acct() { return _acct; }
    const sim::TimeAccountant &acct() const { return _acct; }
    ModelTime now() const { return _acct.now(); }

    /** Cost of moving one word to a 4-neighbour (word-parallel link). */
    ModelTime hopCost() const;

    /** Charge `hops` routing steps plus a compare/ALU op. */
    void chargeRoute(std::uint64_t hops);

    void charge(ModelTime dt) { _acct.advance(dt); }

  private:
    CostModel _cost;
    layout::MeshLayout _layout;
    sim::TimeAccountant _acct;
};

/** Result of a mesh run (same shape as the OTN results). */
struct MeshSortResult
{
    std::vector<std::uint64_t> sorted;
    ModelTime time = 0;
};

/**
 * Sort on a mesh of values.size() processors (one element each),
 * bitonic with nearest-neighbour routing.
 */
MeshSortResult meshSort(MeshMachine &mesh,
                        const std::vector<std::uint64_t> &values);

/**
 * Odd-even transposition sort on the mesh snake order: N rounds of
 * nearest-neighbour compare-exchange, Theta(N) time — the naive mesh
 * sorter the Thompson-Kung bitonic routing beats by a sqrt(N) factor
 * (ablation material; the paper's Table I row is the fast one).
 */
MeshSortResult meshOddEvenSort(MeshMachine &mesh,
                               const std::vector<std::uint64_t> &values);

struct MeshMatMulResult
{
    linalg::IntMatrix product;
    ModelTime time = 0;
};

/** Cannon's algorithm on an n x n mesh (n = a.rows()). */
MeshMatMulResult meshMatMul(MeshMachine &mesh, const linalg::IntMatrix &a,
                            const linalg::IntMatrix &b);

/** Boolean Cannon (AND/OR semiring). */
MeshMatMulResult meshBoolMatMul(MeshMachine &mesh,
                                const linalg::BoolMatrix &a,
                                const linalg::BoolMatrix &b);

struct MeshCcResult
{
    std::vector<std::size_t> labels;
    std::size_t componentCount = 0;
    ModelTime time = 0;
};

/** Connected components via Boolean closure on the mesh. */
MeshCcResult meshConnectedComponents(MeshMachine &mesh,
                                     const graph::Graph &g);

} // namespace ot::baselines
