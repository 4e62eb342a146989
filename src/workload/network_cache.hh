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
 * The network memo.  A lookup has two halves: reserve() finds or
 * makes the key's slot and counts the lookup, and fill() builds the
 * machine into an empty slot through the topo registry.  acquire() is
 * the two in a row.  The BatchEngine reserves on the main thread, in
 * submission order, so hits and misses are deterministic, and leaves
 * fill() to the farm lane that runs the shard; machine builds then
 * overlap with other lanes' runs.
 *
 * A lookup is a hit when the key's slot exists.  Outside a batch's
 * host phase every slot holds a machine: a build that throws leaves
 * no slot behind (acquire() erases it, BatchEngine::run drops every
 * empty slot before rethrowing), so the next lookup of that key is a
 * miss and builds it.  Machines keep register state between
 * acquisitions — the BatchEngine resets them per instance — and their
 * model-time accountants are per-machine, so callers measure runs with
 * reset() + now().  reserve(), acquire() and dropEmpty() are not
 * thread-safe; fill() on distinct slots may run concurrently.
 */
class NetworkCache
{
  public:
    /** One cache entry: its machine, or empty until fill() builds it. */
    using Slot = std::unique_ptr<topo::Machine>;

    NetworkCache() = default;

    NetworkCache(const NetworkCache &) = delete;
    NetworkCache &operator=(const NetworkCache &) = delete;

    /**
     * The slot for `key`, counted as a hit if it exists and as a miss
     * that creates it empty otherwise.  Builds nothing.  The reference
     * stays valid until the slot is erased.
     */
    Slot &reserve(const CacheKey &key, const vlsi::CostModel &cost);

    /** The machine in `slot`, built from `key` first if it is empty. */
    static topo::Machine &fill(Slot &slot, const CacheKey &key);

    /** The machine for `key`: reserve(), then fill(). */
    topo::Machine &acquire(const CacheKey &key,
                           const vlsi::CostModel &cost);

    /** Erase every slot that holds no machine. */
    void dropEmpty();

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }

    /** Distinct slots currently cached. */
    std::size_t size() const { return _machines.size(); }

    /** Drop every cached machine (counters keep their values). */
    void clear() { _machines.clear(); }

  private:
    /** Key/cost agreement contract of reserve(). */
    static void checkCost(const CacheKey &key, const vlsi::CostModel &cost);

    std::map<CacheKey, Slot> _machines;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
};

} // namespace ot::workload
