/**
 * @file
 * Workload specifications: batches of heterogeneous problem instances.
 *
 * Section VIII of the paper argues the OTN's real strength is *serving*
 * streams of independent problems, not single runs.  A WorkloadSpec is
 * the host-side description of such a stream: each InstanceSpec names
 * an algorithm (sort / matmul / Boolean matmul / connected components
 * / MST / shortest paths), a topology from the topo registry ("otn",
 * "otc", "mesh", "fattree", ...), a problem size, a delay model, and a
 * seed for the deterministic input generator.  The BatchEngine
 * (engine.hh) shards a batch over host threads and the NetworkCache
 * reuses one simulated machine per distinct shape.
 *
 * Specs are written either as compact CLI tokens
 * (`algo:net:n:model[:scaled][:seed=K]`) or as a small JSON document
 * (`{"instances": [{"algo": "sort", "net": "otn", "n": 64, ...}]}`);
 * both forms parse with error strings, never by dying, so `otsim
 * batch` can reject bad input politely.  validate() is the engine-side
 * contract and asserts.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/algo.hh"
#include "vlsi/delay.hh"

namespace ot::workload {

/** The algorithms a batch may mix (the paper's Tables I-III rows). */
using Algo = topo::Algo;

/** Short spelling used by the CLI/JSON forms ("sort", "cc", ...). */
using topo::toString;

/** Short delay-model spelling: "log", "const" or "linear". */
using topo::shortName;

/** One problem instance of a batch. */
struct InstanceSpec
{
    Algo algo = Algo::Sort;
    /** Registry name of the topology the instance runs on. */
    std::string net = "otn";
    /** Problem size N (power of two, >= 2). */
    std::size_t n = 64;
    vlsi::DelayModel model = vlsi::DelayModel::Logarithmic;
    /** Thompson's scaled trees (constant-delay tree edges). */
    bool scaled = false;
    /** Seed of the deterministic input generator. */
    std::uint64_t seed = 1;

    /** Ordered so instance sets / maps can key on the spec. */
    auto operator<=>(const InstanceSpec &other) const = default;
};

/** A batch of instances, executed together by the BatchEngine. */
struct WorkloadSpec
{
    std::vector<InstanceSpec> instances;
};

/**
 * Engine-side contract: a batch must be non-empty and every instance
 * size a power of two in [2, 16384] (the machines round N up, which
 * would silently change the problem).  Violations are programming
 * errors and assert; CLI front ends should call describeInvalid()
 * first.
 */
void validate(const WorkloadSpec &spec);

/**
 * Non-fatal validation: "" when the spec satisfies validate(),
 * otherwise a one-line description of the first problem found.
 */
std::string describeInvalid(const WorkloadSpec &spec);

/** Parse a non-negative decimal integer; false on junk or overflow.
 *  Shared by the workload and scenario spec parsers. */
bool parseUint(const std::string &s, std::uint64_t &out);

/**
 * Parse one CLI instance token, `algo:net:n:model[:scaled][:seed=K]`,
 * e.g. "sort:otn:64:log", "mst:otc:32:const:scaled:seed=7".  Returns
 * false and sets `err` on malformed input.
 */
bool parseInstance(const std::string &token, InstanceSpec &out,
                   std::string &err);

/**
 * The instance as the CLI token parseInstance accepts (defaults
 * elided): `algo:net:n:model[:scaled][:seed=K]`.
 */
std::string toToken(const InstanceSpec &inst);

/**
 * Parse a JSON workload document: an object whose "instances" key
 * holds an array of objects with keys "algo", "net", "n", "model",
 * "scaled" and "seed" (all but "algo" optional, with the InstanceSpec
 * defaults).  Accepts exactly that shape — this is a workload-spec
 * reader, not a general JSON library.  Returns false and sets `err`
 * (with a byte offset) on malformed input.
 */
bool parseWorkloadJson(const std::string &text, WorkloadSpec &out,
                       std::string &err);

/** The spec as JSON in the form parseWorkloadJson accepts. */
std::string toJson(const WorkloadSpec &spec);

/**
 * The acceptance-mix demo batch: 12 instances spanning both machine
 * families, two problem sizes, two delay models and all five
 * algorithms, with repeated shapes so the NetworkCache gets hits.
 */
WorkloadSpec demoWorkload();

} // namespace ot::workload
