/**
 * @file
 * The cube-connected cycles — Preparata & Vuillemin [23].
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
#include "topo/machine.hh"
#include "trace/tracer.hh"

namespace ot::topo {

/** An N-element cube-connected-cycles machine ("ccc"). */
class CccMachine final : public Machine
{
  public:
    /** Any n; the element count rounds up to a power of two >= 2. */
    explicit CccMachine(const MachineSpec &spec);

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

    /** Bitonic sort by DESCEND passes (values padded to the size). */
    SortRun runSort(const std::vector<std::uint64_t> &values) override;

  private:
    /** One machine step using a (long) cube wire. */
    ModelTime cubeHopCost() const;
    /** One cycle-rotation step (short wires). */
    ModelTime cycleHopCost() const;

    std::size_t _elements;
    unsigned _dims;
    layout::CccLayout _layout;
    sim::TimeAccountant _acct;
};

} // namespace ot::topo
