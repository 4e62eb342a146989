/**
 * @file
 * The single-tree machine [2], [3], [7] — the structure the OTN
 * generalizes ("the OTN is a generalization of the tree network which
 * has been studied extensively", Section II-A).
 *
 * One complete binary tree over N leaf processors.  Broadcasts and
 * semigroup reductions are as fast as on the OTN's trees, but anything
 * that must move Theta(N) distinct words between leaves serializes at
 * the root: the bisection width is 1.  Sorting by repeated
 * extract-min therefore takes Theta(N) traversals — the bottleneck
 * that motivates giving every row AND column its own tree.
 *
 * Used by the ablation bench (bench_ablation_tree) to show the gap.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "layout/tree_embedding.hh"
#include "sim/time_accountant.hh"
#include "topo/machine.hh"
#include "trace/tracer.hh"

namespace ot::topo {

/** A machine of one complete binary tree over N leaves ("tree"). */
class TreeMachine final : public Machine
{
  public:
    /** Any n; the leaf count rounds up to a power of two. */
    explicit TreeMachine(const MachineSpec &spec);

    /** Leaf data register. */
    std::uint64_t &leaf(std::size_t k) { return _data[k]; }

    /** Broadcast one word from the root to every leaf. */
    void broadcast(std::uint64_t value);

    /** Minimum over all leaves, delivered at the root. */
    std::uint64_t minReduce();

    /** Sum over all leaves, delivered at the root. */
    std::uint64_t sumReduce();

    /** Back to the built state: clock at 0, every leaf kNull. */
    void reset() override;
    /** Theta(N log N): leaves of Theta(log N) area in a row, tree
     *  above. */
    std::uint64_t area() const override;
    std::uint64_t steps() const override { return _acct.steps(); }
    ModelTime now() const override { return _acct.now(); }
    void charge(ModelTime dt) override { _acct.advance(dt); }
    void setTracer(trace::Tracer *tracer) override
    {
        _acct.setTracer(tracer);
    }

    ModelTime exchangeStepCost(std::size_t dist) const override;
    /** One root-to-leaf traversal. */
    ModelTime broadcastCost() const override;
    /** One combining (MIN/SUM) traversal. */
    ModelTime reduceCost() const override;

    /**
     * Sort by repeated extract-min: N rounds of MIN-reduce, emit,
     * disable.  Theta(N log^2 N) under Thompson's model — the root
     * bottleneck on display.
     */
    SortRun runSort(const std::vector<std::uint64_t> &values) override;

  private:
    layout::TreeEmbedding _tree;
    sim::TimeAccountant _acct;
    std::vector<std::uint64_t> _data;
};

} // namespace ot::topo
