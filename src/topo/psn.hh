/**
 * @file
 * The perfect shuffle network (shuffle-exchange) — Stone [25].
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
#include "sim/time_accountant.hh"
#include "topo/machine.hh"
#include "trace/tracer.hh"

namespace ot::topo {

/** An N-node shuffle-exchange machine ("psn"). */
class PsnMachine final : public Machine
{
  public:
    /** Any n; the node count rounds up to a power of two >= 2. */
    explicit PsnMachine(const MachineSpec &spec);

    void reset() override { _acct.reset(); }
    std::uint64_t area() const override
    {
        return _layout.metrics().area();
    }
    std::uint64_t steps() const override { return _acct.steps(); }
    ModelTime now() const override { return _acct.now(); }
    void charge(ModelTime dt) override { _acct.advance(dt); }
    void setTracer(trace::Tracer *tracer) override
    {
        _acct.setTracer(tracer);
    }

    ModelTime exchangeStepCost(std::size_t dist) const override;
    ModelTime broadcastCost() const override;
    ModelTime reduceCost() const override { return broadcastCost(); }

    /** Stone's bitonic sort (values padded to the machine size). */
    SortRun runSort(const std::vector<std::uint64_t> &values) override;

  private:
    /** One shuffle step: word streamed across the shuffle wire. */
    ModelTime shuffleHopCost() const;
    /** One exchange + compare step: short wire plus the comparator. */
    ModelTime exchangeHopCost() const;

    std::size_t _nodes;
    unsigned _bits;
    layout::ShuffleExchangeLayout _layout;
    sim::TimeAccountant _acct;
};

} // namespace ot::topo
