/**
 * @file
 * A two-layer fat-tree built from switch port counts.
 *
 * Following Solnushkin's automated two-layer design (arXiv:1301.6179):
 * given switches of p ports, the edge layer uses p/2 ports down (to
 * compute nodes) and p/2 up (to the spine), and a spine of p/2
 * switches connects up to p edge switches — so one switch model spans
 * machines of up to p^2/2 nodes with full bisection.  The builder
 * picks the smallest even p >= 4 whose capacity covers N unless the
 * caller fixes the port count explicitly (bad port counts assert:
 * that is the malformed-spec failure-injection surface).
 *
 * Geometry for the delay-model-aware accounting: edge switches sit in
 * a row, each above its p/2 nodes (block pitch Theta(p/2 * word));
 * the spine row runs above them, so a node-to-node route crosses two
 * short node wires and, across blocks, two long spine wires of up to
 * half the chip width.  Intra-block exchanges therefore stay cheap
 * under Thompson's model while cross-block traffic pays wire delay —
 * the property the conformance tables surface against the
 * orthogonal-tree machines.
 *
 * All algorithms run through the generic primitive fallbacks; the
 * fat-tree contributes only its primitive costs.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/time_accountant.hh"
#include "topo/machine.hh"
#include "trace/tracer.hh"
#include "vlsi/delay.hh"

namespace ot::topo {

/** A two-layer fat-tree of p-port switches over N nodes ("fattree"). */
class FatTreeMachine final : public Machine
{
  public:
    /**
     * @param spec  The machine spec (n = node count).
     * @param ports Switch port count p; 0 picks defaultPorts(n).
     *              Asserts: p even, p >= 4, capacity p^2/2 >= n.
     */
    explicit FatTreeMachine(const MachineSpec &spec, unsigned ports = 0);

    /** Smallest even p >= 4 with p^2/2 >= n. */
    static unsigned defaultPorts(std::size_t n);

    unsigned ports() const { return _ports; }
    /** Nodes per edge switch: p/2. */
    unsigned nodesPerSwitch() const { return _ports / 2; }
    /** Edge switches actually populated. */
    std::size_t edgeSwitches() const { return _edgeSwitches; }
    /** Spine switches: p/2. */
    unsigned spines() const { return _ports / 2; }

    /** Wire from a node to its edge switch, lambda units. */
    vlsi::WireLength nodeWire() const { return _blockPitch; }
    /** Longest edge-to-spine wire, lambda units. */
    vlsi::WireLength spineWire() const { return _spineWire; }

    void reset() override { _acct.reset(); }
    std::uint64_t area() const override;
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

  private:
    unsigned _ports;
    std::size_t _edgeSwitches;
    /** Width of one edge block (switch plus its nodes). */
    vlsi::WireLength _blockPitch;
    /** Worst-case edge-to-spine wire. */
    vlsi::WireLength _spineWire;
    sim::TimeAccountant _acct;
};

} // namespace ot::topo
