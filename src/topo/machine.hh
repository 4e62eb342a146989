/**
 * @file
 * The topology plugin interface: one Machine per network family.
 *
 * Section VII of the paper compares the orthogonal-tree machines
 * against the mesh, shuffle-exchange and cube-connected-cycles under
 * one cost model; this layer turns that comparison into a plugin
 * contract.  A topo::Machine is built from a MachineSpec (topology
 * name, problem size, cycle length, delay model, word width, tree
 * scaling — exactly the workload engine's cache key), accounts model
 * time deterministically, and serves the full algorithm vocabulary of
 * algo.hh.
 *
 * Topologies describe themselves through three *primitive accounting
 * hooks* — the cost of a distance-d compare-exchange step, of a
 * broadcast, and of a combining reduction — and the base class
 * provides generic algorithm implementations on top of them (bitonic
 * sort, broadcast matmul, min-label components, Boruvka MST,
 * Bellman-Ford paths).  A machine with a native algorithm (SORT-OTC's
 * streaming sort, Cannon on the mesh, the hex array's systolic
 * product) overrides the corresponding run*() and keeps its bespoke
 * model times; everything else inherits the generic fallbacks, so
 * *every* registered algorithm runs on *every* registered topology —
 * the property the cross-topology conformance suite asserts.
 *
 * All results carry the run's model time; verification against the
 * sequential references stays in the workload engine.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hh"
#include "graph/reference_algorithms.hh"
#include "linalg/matrix.hh"
#include "topo/algo.hh"
#include "trace/tracer.hh"
#include "vlsi/cost_model.hh"
#include "vlsi/delay.hh"
#include "vlsi/word.hh"

namespace ot::topo {

using vlsi::ModelTime;

/**
 * Build-from-spec parameters of one machine: the topology name plus
 * everything the cost rules depend on.  Ordered so it can key the
 * workload engine's NetworkCache directly — two equal specs are
 * served by one machine object.
 */
struct MachineSpec
{
    /** Registry name of the concrete machine ("otn", "fattree", ...). */
    std::string topo = "otn";
    /** Problem size N (power of two, >= 2). */
    std::size_t n = 0;
    /** Cycle length L of the OTC forms; 0 elsewhere. */
    unsigned cycleLen = 0;
    vlsi::DelayModel model = vlsi::DelayModel::Logarithmic;
    unsigned wordBits = 0;
    /** Thompson's scaled trees (constant-delay tree edges). */
    bool scaled = false;

    auto operator<=>(const MachineSpec &other) const = default;

    /** The cost model the spec pins down. */
    vlsi::CostModel
    cost() const
    {
        return {model, vlsi::WordFormat(wordBits), scaled};
    }
};

/** Human-readable spec, e.g. "otn:n=32:log:w=10" (for reports). */
std::string toString(const MachineSpec &spec);

/**
 * Results of the algorithm entry points.  `area` is an optional
 * per-run chip-area override (0 = use the machine's area()): machines
 * whose natural chip for an algorithm differs from the build-time one
 * (the Table II Boolean-product OTC, the mesh's N^2-processor Cannon
 * grid) report the chip the run actually modeled.
 */
struct SortRun
{
    std::vector<std::uint64_t> sorted;
    ModelTime time = 0;
    std::uint64_t area = 0;
};

struct MatMulRun
{
    linalg::IntMatrix product;
    ModelTime time = 0;
    std::uint64_t area = 0;
};

struct CcRun
{
    std::vector<std::size_t> labels;
    ModelTime time = 0;
    std::uint64_t area = 0;
};

struct MstRun
{
    /** Forest edges sorted by (w, u, v), as graph::kruskalMsf. */
    std::vector<graph::Edge> edges;
    ModelTime time = 0;
    std::uint64_t area = 0;
    /** Boruvka phases executed. */
    unsigned phases = 0;
};

struct SsspRun
{
    /** dist[v] from the source (graph::kUnreachable if none). */
    std::vector<std::uint64_t> dist;
    ModelTime time = 0;
    std::uint64_t area = 0;
    /** Relaxation rounds executed (the last one detects convergence). */
    unsigned rounds = 0;
};

/** One pluggable network topology under the VLSI cost model.
 *
 *  Machines are cached by workload::NetworkCache and handed out to
 *  BatchEngine shards; a machine is only ever driven by the one farm
 *  lane that owns its shard. */
class Machine
{
  public:
    explicit Machine(const MachineSpec &spec)
        : _spec(spec), _cost(spec.cost())
    {
    }

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;
    virtual ~Machine() = default;

    const MachineSpec &spec() const { return _spec; }
    std::size_t n() const { return _spec.n; }
    const vlsi::CostModel &cost() const { return _cost; }

    /** Bring a (possibly reused) machine back to its built state. */
    virtual void reset() = 0;

    /** Chip area in lambda^2 (the A of the AT^2 comparisons). */
    virtual std::uint64_t area() const = 0;

    /** Accounting hook: parallel steps charged since construction. */
    virtual std::uint64_t steps() const = 0;

    /** Current model time of the machine's clock. */
    virtual ModelTime now() const = 0;

    /** Charge one parallel step of duration dt. */
    virtual void charge(ModelTime dt) = 0;

    /** Attach a model-time tracer (nullptr detaches). */
    virtual void setTracer(trace::Tracer *tracer) = 0;

    // ---- Per-primitive accounting hooks.  These three durations are
    // the topology's microarchitecture description: how long one
    // parallel compare-exchange sweep at linear distance `dist`, one
    // one-to-all broadcast, and one combining (MIN/SUM) reduction take
    // under the machine's delay model and geometry.

    /** Parallel compare-exchange of all pairs (i, i xor dist). */
    virtual ModelTime exchangeStepCost(std::size_t dist) const = 0;

    /** One word from one node to all N nodes. */
    virtual ModelTime broadcastCost() const = 0;

    /** Combining reduction (MIN/SUM) of one word per node. */
    virtual ModelTime reduceCost() const = 0;

    // ---- Algorithm entry points.  Defaults are the generic
    // primitive-based implementations (machine.cc); machines override
    // where a native algorithm exists.

    /** Sort values.size() = N keys. */
    virtual SortRun runSort(const std::vector<std::uint64_t> &values);

    /** C = A * B for N x N integer matrices. */
    virtual MatMulRun runMatMul(const linalg::IntMatrix &a,
                                const linalg::IntMatrix &b);

    /** Boolean (AND/OR) product; entries of the result are 0/1. */
    virtual MatMulRun runBoolMatMul(const linalg::BoolMatrix &a,
                                    const linalg::BoolMatrix &b);

    /** Component labels in canonical (smallest-vertex) form. */
    virtual CcRun runConnectedComponents(const graph::Graph &g);

    /** Minimum spanning forest (edge weights must be distinct). */
    virtual MstRun runMst(const graph::WeightedGraph &g);

    /** Single-source shortest paths from src. */
    virtual SsspRun runShortestPaths(const graph::WeightedGraph &g,
                                     std::size_t src);

  private:
    MachineSpec _spec;
    vlsi::CostModel _cost;
};

} // namespace ot::topo
