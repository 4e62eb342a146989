/**
 * @file
 * Umbrella header for orthotree — orthogonal trees networks for VLSI
 * parallel processing, after Nath, Maheshwari & Bhatt (IEEE Trans.
 * Computers, C-32(6), 1983).
 *
 * Quickstart:
 *
 *   #include "orthotree/orthotree.hh"
 *
 *   // The paper's (n x n)-OTN for sorting, Thompson's delay model:
 *   auto spec = ot::topo::resolveSpec("otn", ot::topo::Algo::Sort, n,
 *                                     ot::vlsi::DelayModel::Logarithmic,
 *                                     false);
 *   auto m = ot::topo::registry().build(spec);
 *   auto r = m->runSort(values);                   // SORT-OTN
 *   // r.sorted — the values; r.time — model time;
 *   // r.area ? r.area : m->area() — chip area.
 *
 * The library is organised as:
 *   ot::vlsi      — Thompson's VLSI cost model (delay rules, words)
 *   ot::sim       — model-time accounting, stats, deterministic RNG
 *   ot::trace     — model-time event tracing, Perfetto export, analysis
 *   ot::layout    — chip layouts (OTN, OTC, mesh, PSN, CCC)
 *   ot::linalg    — matrices and sequential references
 *   ot::graph     — graphs, generators, sequential references
 *   ot::otn       — the orthogonal trees network and its algorithms
 *   ot::otc       — the orthogonal tree cycles and its algorithms
 *   ot::topo      — the topology registry and its machines (mesh, PSN,
 *                   CCC, tree, hex, fat-tree, MoT, OTN/OTC adapters)
 *   ot::workload  — batched multi-instance serving with network cache
 *   ot::scenario  — traffic scenarios: arrivals, schedulers, SLOs
 *   ot::analysis  — the paper's table formulas, fitting, rendering
 */

#pragma once

#include "analysis/asymptotics.hh"
#include "analysis/fitting.hh"
#include "analysis/table.hh"
#include "graph/generators.hh"
#include "graph/graph.hh"
#include "graph/reference_algorithms.hh"
#include "layout/baseline_layouts.hh"
#include "layout/otc_layout.hh"
#include "layout/otn_layout.hh"
#include "layout/svg.hh"
#include "linalg/matrix.hh"
#include "linalg/reference.hh"
#include "otc/emulated_otn.hh"
#include "otc/network.hh"
#include "otc/sort.hh"
#include "otn/bitonic.hh"
#include "otn/connected_components.hh"
#include "otn/dft.hh"
#include "otn/integer_multiply.hh"
#include "otn/matmul.hh"
#include "otn/mesh_of_trees_3d.hh"
#include "otn/mst.hh"
#include "otn/network.hh"
#include "otn/patterns.hh"
#include "otn/pipeline.hh"
#include "otn/shortest_paths.hh"
#include "otn/sort.hh"
#include "scenario/arrivals.hh"
#include "scenario/engine.hh"
#include "scenario/scheduler.hh"
#include "scenario/spec.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/time_accountant.hh"
#include "topo/adapters.hh"
#include "topo/algo.hh"
#include "topo/ccc.hh"
#include "topo/fat_tree.hh"
#include "topo/hex.hh"
#include "topo/machine.hh"
#include "topo/mesh.hh"
#include "topo/mot_noc.hh"
#include "topo/psn.hh"
#include "topo/registry.hh"
#include "topo/tree.hh"
#include "trace/analysis.hh"
#include "trace/export.hh"
#include "trace/tracer.hh"
#include "vlsi/bitmath.hh"
#include "vlsi/cost_model.hh"
#include "vlsi/delay.hh"
#include "vlsi/word.hh"
#include "workload/engine.hh"
#include "workload/network_cache.hh"
#include "workload/spec.hh"

namespace ot {

/** Library version. */
inline constexpr unsigned kVersionMajor = 1;
inline constexpr unsigned kVersionMinor = 0;
inline constexpr unsigned kVersionPatch = 0;

/**
 * The paper's standard cost model for an N-element problem: Thompson's
 * logarithmic wire delay with O(log N)-bit bit-serial words.
 */
inline vlsi::CostModel
defaultCostModel(std::size_t n,
                 vlsi::DelayModel model = vlsi::DelayModel::Logarithmic,
                 bool scaled_trees = false)
{
    return {model, vlsi::WordFormat::forProblemSize(n), scaled_trees};
}

} // namespace ot
