/**
 * @file
 * The perfect shuffle network (shuffle-exchange) baseline — Stone [25].
 *
 * N = 2^m processors; processor x connects to its shuffle successor
 * rotl(x) and to its exchange partner x ^ 1.  Stone's bitonic sort
 * realises each Batcher compare-exchange at distance 2^j by shuffling
 * until bit j occupies the LSB (so the partners become exchange
 * neighbours), then exchanging: O(log^2 N) machine steps.
 *
 * Per machine step the word streams over the longest shuffle wire —
 * Theta(N / log N) in the Kleitman et al. layout [14] — so a step
 * costs O(log N) under Thompson's model (total O(log^3 N), Table I)
 * but O(1) under the constant-delay model (total O(log^2 N),
 * Table IV).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "layout/baseline_layouts.hh"
#include "sim/stats.hh"
#include "sim/time_accountant.hh"
#include "vlsi/cost_model.hh"

namespace ot::baselines {

using vlsi::CostModel;
using vlsi::ModelTime;

/** An N-node shuffle-exchange machine. */
class PsnMachine
{
  public:
    PsnMachine(std::size_t nodes, const CostModel &cost);

    std::size_t nodes() const { return _nodes; }
    unsigned addressBits() const { return _bits; }
    const CostModel &cost() const { return _cost; }
    const layout::ShuffleExchangeLayout &chipLayout() const
    {
        return _layout;
    }
    sim::TimeAccountant &acct() { return _acct; }
    const sim::TimeAccountant &acct() const { return _acct; }
    ModelTime now() const { return _acct.now(); }

    /** One shuffle step: word streamed across the shuffle wire. */
    ModelTime shuffleStepCost() const;

    /** One exchange + compare step: short wire plus the comparator. */
    ModelTime exchangeStepCost() const;

    void charge(ModelTime dt) { _acct.advance(dt); }

  private:
    std::size_t _nodes;
    unsigned _bits;
    CostModel _cost;
    layout::ShuffleExchangeLayout _layout;
    sim::TimeAccountant _acct;
};

struct PsnSortResult
{
    std::vector<std::uint64_t> sorted;
    ModelTime time = 0;
    /** Machine steps executed (shuffles + exchanges). */
    std::uint64_t steps = 0;
};

/** Stone's bitonic sort (values.size() padded to the machine size). */
PsnSortResult psnSort(PsnMachine &psn,
                      const std::vector<std::uint64_t> &values);

} // namespace ot::baselines
