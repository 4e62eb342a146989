/**
 * @file
 * The Mesh-of-Trees NoC, plain and with diametrical links (D2D-MoT).
 *
 * A K x K node grid (K the smallest power of two with K^2 >= N) whose
 * rows and columns are each spanned by a complete binary tree — the
 * same skeleton as the paper's OTN, used here as a routing network: a
 * packet from (r1, c1) to (r2, c2) rides the row tree of r1 to column
 * c2, then the column tree of c2 to row r2.  A tree hop crosses the
 * tree's *root* exactly when source and destination leaves lie in
 * opposite halves, and the roots are the network's hot spot.
 *
 * The D2D ("diametrical 2D") variant, following arXiv:1212.2874, adds
 * a direct link from every node (i, j) to its diametrical opposite
 * (K-1-i, K-1-j).  Traffic whose row *and* column both cross halves
 * takes the diametrical link first and then two half-local tree
 * rides, eliminating both root crossings.  The root-bandwidth tracer
 * test drives the same traffic through both variants and asserts the
 * D2D root word count strictly lower.
 *
 * Routing emits one traced span per packet with `words` = root
 * crossings, so trace::analyze() reports root bandwidth directly.
 */

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "layout/otn_layout.hh"
#include "sim/chain_engine.hh"
#include "sim/stats.hh"
#include "sim/time_accountant.hh"
#include "topo/machine.hh"
#include "trace/tracer.hh"
#include "vlsi/delay.hh"

namespace ot::topo {

/** MoT NoC over N nodes ("mot"); diametrical links make "d2d-mot". */
class MotNocMachine final : public Machine
{
  public:
    MotNocMachine(const MachineSpec &spec, bool diametrical);

    /** Grid side K (power of two, K^2 >= n). */
    std::size_t side() const { return _k; }
    bool diametrical() const { return _diametrical; }

    void reset() override;
    std::uint64_t area() const override;
    std::uint64_t steps() const override { return _acct.steps(); }
    ModelTime now() const override { return _acct.now(); }
    void charge(ModelTime dt) override { _engine.charge(dt); }
    void setTracer(trace::Tracer *tracer) override
    {
        _acct.setTracer(tracer);
        _engine.setTracer(tracer);
    }

    ModelTime exchangeStepCost(std::size_t dist) const override;
    ModelTime broadcastCost() const override;
    ModelTime reduceCost() const override;

    /** One route's price under the machine's delay model. */
    struct Route
    {
        ModelTime time = 0;
        /** Tree roots the packet crosses (0, 1 or 2). */
        unsigned rootCrossings = 0;
        /** Took the diametrical link. */
        bool diametricalHop = false;
    };

    /** Price the route src -> dst (node indices in [0, n)). */
    Route routeCost(std::size_t src, std::size_t dst) const;

    /**
     * Route one packet per (src, dst) pair, charging each route and
     * emitting a traced "route" span whose `words` field carries the
     * route's root crossings.  Returns the summed model time.
     */
    ModelTime
    runTraffic(const std::vector<std::pair<std::size_t, std::size_t>> &pairs);

    /** Root crossings accumulated by runTraffic since reset(). */
    std::uint64_t rootWords() const { return _rootWords; }

  private:
    /** Tree-route cost between leaves a and b of one K-leaf tree. */
    ModelTime treeRoute(std::size_t a, std::size_t b) const;

    /** Do a and b lie in opposite halves (the route crosses the root)? */
    bool crossesRoot(std::size_t a, std::size_t b) const;

    std::size_t _k;
    bool _diametrical;
    layout::OtnLayout _layout;
    std::uint64_t _rootWords = 0;
    sim::TimeAccountant _acct;
    sim::StatSet _stats;
    sim::ChainEngine _engine;
};

} // namespace ot::topo
