/**
 * @file
 * The cube-connected cycles baseline — Preparata & Vuillemin [23].
 *
 * The CCC replaces each node of a log(N)-dimensional hypercube with a
 * cycle of log N processors, one per dimension, so that cube edges of
 * every dimension are available somewhere on each cycle.  Batcher's
 * bitonic sort maps onto it as a sequence of DESCEND passes: a merge
 * phase over distances 2^(s-1) ... 2^0 costs O(s + log N) machine
 * steps (the cycle rotations pipeline with the dimension operations),
 * for O(log^2 N) steps overall.
 *
 * Cube wires are Theta(N / log N) long in the O(N^2 / log^2 N) layout,
 * so a machine step costs O(log N) under Thompson's model — total
 * O(log^3 N) (Table I, with the paper's Section VII-A remark that the
 * O(log^2 N) CCC sort "requires O(log^3 N) time using Thompson's
 * model") — and O(1) under constant delay (Table IV).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "layout/baseline_layouts.hh"
#include "sim/time_accountant.hh"
#include "vlsi/cost_model.hh"

namespace ot::baselines {

using vlsi::CostModel;
using vlsi::ModelTime;

/** An N-element cube-connected-cycles machine. */
class CccMachine
{
  public:
    CccMachine(std::size_t elements, const CostModel &cost);

    /** Elements sorted (power of two); one per emulated cube node. */
    std::size_t elements() const { return _elements; }
    unsigned dims() const { return _dims; }
    const CostModel &cost() const { return _cost; }
    const layout::CccLayout &chipLayout() const { return _layout; }
    sim::TimeAccountant &acct() { return _acct; }
    const sim::TimeAccountant &acct() const { return _acct; }
    ModelTime now() const { return _acct.now(); }

    /** One machine step using a (long) cube wire. */
    ModelTime cubeStepCost() const;

    /** One cycle-rotation step (short wires). */
    ModelTime cycleStepCost() const;

    void charge(ModelTime dt) { _acct.advance(dt); }

  private:
    std::size_t _elements;
    unsigned _dims;
    CostModel _cost;
    layout::CccLayout _layout;
    sim::TimeAccountant _acct;
};

struct CccSortResult
{
    std::vector<std::uint64_t> sorted;
    ModelTime time = 0;
    std::uint64_t steps = 0;
};

/** Bitonic sort on the CCC (values padded to a power of two). */
CccSortResult cccSort(CccMachine &ccc,
                      const std::vector<std::uint64_t> &values);

} // namespace ot::baselines
