/**
 * @file
 * topo::Machine adapters over the existing simulators.
 *
 * One adapter per machine family already in the tree: the plain OTN,
 * the native streaming OTC, the OTC-emulated OTN (Section V-A), and
 * the five baselines (mesh, shuffle-exchange, cube-connected cycles,
 * single tree, hex array).  Each adapter delegates to the family's
 * native algorithms where they exist — keeping the model times of the
 * pre-plugin runners bit-for-bit — and inherits the generic
 * primitive-based fallbacks for the rest, so every family serves the
 * full algorithm vocabulary.
 *
 * The orthogonal-tree adapters reset their (expensive) networks in
 * place, exactly as the workload engine used to; the baseline
 * machines are cheap (a layout plus an accountant), so their adapters
 * rebuild on reset(), which also restarts the per-run step counters.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "baselines/ccc.hh"
#include "baselines/hex_array.hh"
#include "baselines/mesh.hh"
#include "baselines/psn.hh"
#include "baselines/tree_machine.hh"
#include "graph/graph.hh"
#include "linalg/matrix.hh"
#include "otc/emulated_otn.hh"
#include "otc/network.hh"
#include "otn/network.hh"
#include "topo/machine.hh"
#include "trace/tracer.hh"

namespace ot::topo {

/** The plain (N x N) orthogonal trees network ("otn"). */
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
// otcheck:allow(topo-fallback): the emulation charges OTN's per-hook
// costs by construction (Section V-A maps every OTN primitive onto
// the OTC cell grid); overriding them would fork the cost model the
// emulation is defined to share.
class OtcEmulatedTopoMachine : public OtnTopoMachine
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
class OtcNativeTopoMachine : public Machine
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

/** The sqrt(N) x sqrt(N) mesh ("mesh", Thompson-Kung + Cannon). */
class MeshTopoMachine : public Machine
{
  public:
    explicit MeshTopoMachine(const MachineSpec &spec);

    void reset() override;
    std::uint64_t area() const override;
    std::uint64_t steps() const override;
    ModelTime now() const override { return _pe->now(); }
    void charge(ModelTime dt) override { _pe->charge(dt); }
    void setTracer(trace::Tracer *tracer) override;

    ModelTime exchangeStepCost(std::size_t dist) const override;
    ModelTime broadcastCost() const override;
    ModelTime reduceCost() const override;

    SortRun runSort(const std::vector<std::uint64_t> &values) override;
    MatMulRun runMatMul(const linalg::IntMatrix &a,
                        const linalg::IntMatrix &b) override;
    MatMulRun runBoolMatMul(const linalg::BoolMatrix &a,
                            const linalg::BoolMatrix &b) override;
    CcRun runConnectedComponents(const graph::Graph &g) override;

  private:
    /** The N^2-processor Cannon grid, built on first matrix/CC run. */
    baselines::MeshMachine &grid();

    std::optional<baselines::MeshMachine> _pe;
    std::unique_ptr<baselines::MeshMachine> _grid;
    trace::Tracer *_tracer = nullptr;
};

/** Stone's perfect shuffle network ("psn"). */
class PsnTopoMachine : public Machine
{
  public:
    explicit PsnTopoMachine(const MachineSpec &spec);

    void reset() override;
    std::uint64_t area() const override;
    std::uint64_t steps() const override { return _m->acct().steps(); }
    ModelTime now() const override { return _m->now(); }
    void charge(ModelTime dt) override { _m->charge(dt); }
    void setTracer(trace::Tracer *tracer) override;

    ModelTime exchangeStepCost(std::size_t dist) const override;
    ModelTime broadcastCost() const override;
    ModelTime reduceCost() const override;

    SortRun runSort(const std::vector<std::uint64_t> &values) override;

  private:
    std::optional<baselines::PsnMachine> _m;
    trace::Tracer *_tracer = nullptr;
};

/** The cube-connected cycles ("ccc", Preparata-Vuillemin). */
class CccTopoMachine : public Machine
{
  public:
    explicit CccTopoMachine(const MachineSpec &spec);

    void reset() override;
    std::uint64_t area() const override;
    std::uint64_t steps() const override { return _m->acct().steps(); }
    ModelTime now() const override { return _m->now(); }
    void charge(ModelTime dt) override { _m->charge(dt); }
    void setTracer(trace::Tracer *tracer) override;

    ModelTime exchangeStepCost(std::size_t dist) const override;
    ModelTime broadcastCost() const override;
    ModelTime reduceCost() const override;

    SortRun runSort(const std::vector<std::uint64_t> &values) override;

  private:
    std::optional<baselines::CccMachine> _m;
    trace::Tracer *_tracer = nullptr;
};

/** The single-tree machine ("tree", the root-bottleneck ablation). */
class TreeTopoMachine : public Machine
{
  public:
    explicit TreeTopoMachine(const MachineSpec &spec);

    void reset() override;
    std::uint64_t area() const override;
    std::uint64_t steps() const override { return _m->acct().steps(); }
    ModelTime now() const override { return _m->now(); }
    void charge(ModelTime dt) override { _m->charge(dt); }
    void setTracer(trace::Tracer *tracer) override;

    ModelTime exchangeStepCost(std::size_t dist) const override;
    ModelTime broadcastCost() const override;
    ModelTime reduceCost() const override;

    SortRun runSort(const std::vector<std::uint64_t> &values) override;

  private:
    std::optional<baselines::TreeMachine> _m;
    trace::Tracer *_tracer = nullptr;
};

/** The hexagonal systolic array ("hex", Kung-Leiserson). */
class HexTopoMachine : public Machine
{
  public:
    explicit HexTopoMachine(const MachineSpec &spec);

    void reset() override;
    std::uint64_t area() const override;
    std::uint64_t steps() const override { return _m->acct().steps(); }
    ModelTime now() const override { return _m->now(); }
    void charge(ModelTime dt) override { _m->charge(dt); }
    void setTracer(trace::Tracer *tracer) override;

    ModelTime exchangeStepCost(std::size_t dist) const override;
    ModelTime broadcastCost() const override;
    ModelTime reduceCost() const override;

    MatMulRun runMatMul(const linalg::IntMatrix &a,
                        const linalg::IntMatrix &b) override;
    MatMulRun runBoolMatMul(const linalg::BoolMatrix &a,
                            const linalg::BoolMatrix &b) override;

  private:
    std::optional<baselines::HexArray> _m;
    trace::Tracer *_tracer = nullptr;
};

} // namespace ot::topo
