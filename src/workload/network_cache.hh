/**
 * @file
 * Memoizing cache of constructed network simulators.
 *
 * Building a machine is the expensive part of serving a request: the
 * constructor lays out the chip, and the first primitive computes the
 * tree traversal/reduce costs from that geometry (cached per network,
 * see otn::OrthogonalTreesNetwork::treeTraversalCost).  Two instances
 * with the same *shape* — topology name, problem size, cycle length,
 * delay model, word width, scaling — are served by the same machine
 * object, so repeated shapes in a batch skip construction and reuse
 * the warmed cost caches.  The key deliberately excludes the
 * algorithm: CONNECT and a Boolean product at the same N run on
 * machines with identical geometry and share one entry.
 *
 * The cache key *is* the build spec of the topo registry: every
 * acquire asserts that the caller's CostModel agrees with the key, so
 * a batch can never run an instance under a different delay model than
 * the machine it shares was built for.
 *
 * Every machine runs its pardo loops sequentially.  Host parallelism
 * lives one level up: the BatchEngine runs whole shards, each on its
 * own machine, on separate host lanes.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "topo/machine.hh"
#include "topo/registry.hh"
#include "vlsi/cost_model.hh"

namespace ot::workload {

/** Shape of one cached machine: the topo build spec. */
using CacheKey = topo::MachineSpec;

/** Human-readable key, e.g. "otn:n=32:log:w=10" (for reports). */
using topo::toString;

/**
 * The network memo.  acquire() returns the cached machine for a key,
 * constructing it through the topo registry on the first request;
 * hits() / misses() count the lookups.  Machines keep register state
 * between acquisitions — the BatchEngine resets them per instance —
 * and their model-time accountants are per-machine, so callers measure
 * runs with reset() + now().  acquire() is not thread-safe: the
 * BatchEngine calls it on the main thread before the farm starts.
 */
class NetworkCache
{
  public:
    NetworkCache() = default;

    NetworkCache(const NetworkCache &) = delete;
    NetworkCache &operator=(const NetworkCache &) = delete;

    /** The machine for `key`, built by the registry on first use. */
    topo::Machine &acquire(const CacheKey &key,
                           const vlsi::CostModel &cost);

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }

    /** Distinct machines currently cached. */
    std::size_t size() const { return _machines.size(); }

    /** Drop every cached machine (counters keep their values). */
    void clear() { _machines.clear(); }

  private:
    /** Key/cost agreement contract of acquire(). */
    static void checkCost(const CacheKey &key, const vlsi::CostModel &cost);

    std::map<CacheKey, std::unique_ptr<topo::Machine>> _machines;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace ot::workload
