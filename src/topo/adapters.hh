/**
 * @file
 * topo::Machine adapters over the orthogonal-tree simulators.
 *
 * One adapter per orthogonal-tree family: the plain OTN, the native
 * streaming OTC and the OTC-emulated OTN (Section V-A).  These wrap a
 * simulator because the src/otn and src/otc algorithms drive the
 * network directly; each adapter delegates to those native algorithms
 * and inherits the generic primitive-based fallbacks for the rest, so
 * every family serves the full algorithm vocabulary.  The adapters
 * reset their (expensive) networks in place.
 *
 * The other machines (mesh, psn, ccc, tree, hex, fattree, mot) are
 * single topo::Machine classes with their own headers.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.hh"
#include "linalg/matrix.hh"
#include "otc/emulated_otn.hh"
#include "otc/network.hh"
#include "otn/network.hh"
#include "topo/machine.hh"
#include "trace/tracer.hh"

namespace ot::topo {

/** The plain (N x N) orthogonal trees network ("otn").  The one
 *  non-final adapter: OtcEmulatedTopoMachine derives from it to share
 *  OTN's cost model. */
class OtnTopoMachine : public Machine
{
  public:
    explicit OtnTopoMachine(const MachineSpec &spec);

    void reset() override;
    std::uint64_t area() const override;
    std::uint64_t steps() const override { return _net->acct().steps(); }
    ModelTime now() const override { return _net->now(); }
    void charge(ModelTime dt) override { _net->charge(dt); }
    void setTracer(trace::Tracer *tracer) override
    {
        _net->setTracer(tracer);
    }

    ModelTime exchangeStepCost(std::size_t dist) const override;
    ModelTime broadcastCost() const override;
    ModelTime reduceCost() const override;

    SortRun runSort(const std::vector<std::uint64_t> &values) override;
    MatMulRun runMatMul(const linalg::IntMatrix &a,
                        const linalg::IntMatrix &b) override;
    MatMulRun runBoolMatMul(const linalg::BoolMatrix &a,
                            const linalg::BoolMatrix &b) override;
    CcRun runConnectedComponents(const graph::Graph &g) override;
    MstRun runMst(const graph::WeightedGraph &g) override;
    SsspRun runShortestPaths(const graph::WeightedGraph &g,
                             std::size_t src) override;

    /** The simulated network (register-level inspection in tests). */
    otn::OrthogonalTreesNetwork &network() { return *_net; }

  protected:
    OtnTopoMachine(const MachineSpec &spec,
                   std::unique_ptr<otn::OrthogonalTreesNetwork> net);

    std::unique_ptr<otn::OrthogonalTreesNetwork> _net;
};

/** The OTC-emulated OTN ("otc-emu", Section V-A). */
// It inherits OTN's three accounting hooks on purpose: the emulation
// charges OTN's per-hook costs by construction (Section V-A maps every
// OTN primitive onto the OTC cell grid); overriding them would fork
// the cost model the emulation is defined to share.
class OtcEmulatedTopoMachine final : public OtnTopoMachine
{
  public:
    explicit OtcEmulatedTopoMachine(const MachineSpec &spec);

    std::uint64_t area() const override;

    /** The Table II replicated-block Boolean product. */
    MatMulRun runBoolMatMul(const linalg::BoolMatrix &a,
                            const linalg::BoolMatrix &b) override;

  private:
    otc::OtcEmulatedOtn *_emu; // owned by _net
};

/** The native streaming OTC ("otc", SORT-OTC). */
class OtcNativeTopoMachine final : public Machine
{
  public:
    explicit OtcNativeTopoMachine(const MachineSpec &spec);

    void reset() override;
    std::uint64_t area() const override;
    std::uint64_t steps() const override { return _net->acct().steps(); }
    ModelTime now() const override { return _net->now(); }
    void charge(ModelTime dt) override { _net->charge(dt); }
    void setTracer(trace::Tracer *tracer) override
    {
        _net->setTracer(tracer);
    }

    ModelTime exchangeStepCost(std::size_t dist) const override;
    ModelTime broadcastCost() const override;
    ModelTime reduceCost() const override;

    SortRun runSort(const std::vector<std::uint64_t> &values) override;

    /** The simulated network (register-level inspection in tests). */
    otc::OtcNetwork &network() { return *_net; }

  private:
    std::unique_ptr<otc::OtcNetwork> _net;
};

} // namespace ot::topo
