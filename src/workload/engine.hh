/**
 * @file
 * The batched multi-instance workload engine (Section VIII as a
 * serving system).
 *
 * A BatchEngine accepts a WorkloadSpec — a batch of heterogeneous
 * problem instances — and executes it as a *machine farm*: instances
 * are grouped by machine shape (one NetworkCache entry per shape),
 * each group runs sequentially on its shared machine, and the groups
 * run in parallel, one farm shard per group.  run() works in two
 * steps:
 *
 *  1. Host phase — the only threaded code in the simulator.  The
 *     main thread first resolves every instance to its shard and
 *     cache slot in submission order, so hit and miss are fixed
 *     before any lane starts; a miss only reserves the slot.  Then
 *     OT_HOST_THREADS lanes claim shards one at a time, in shard
 *     order (ChainEngine::hostFor); the claiming lane builds the
 *     shard's machine if its slot is empty and runs the shard's
 *     instances, writing only that shard's machine and report slots.
 *  2. Model phase — on the calling thread, a parallelFor over the
 *     shards replays each instance's span, charge and stat counter
 *     in shard order.  The max-of-chains rule of the networks' pardo
 *     loops makes the aggregate makespan the farm's parallel
 *     completion time:
 *
 *         makespan = max over shards of (sum of the shard's instance
 *                    times);  total work = sum of all instance times.
 *
 * Everything reported — per-instance model times, the aggregate, the
 * cache counters, the trace stream — derives from model time and
 * deterministic inputs and is recorded in step 2, so reports are
 * byte-identical at every host-thread count (enforced by
 * tests/test_workload.cc).
 *
 * Every instance is verified against its sequential reference (sorted
 * order, linalg::matMul, union-find components, Kruskal, Dijkstra); a
 * report with verified=false on any instance means a simulator bug,
 * and `otsim batch` exits nonzero on it.
 *
 * Machines come from the topo registry: an instance's `net` names any
 * registered topology, and the engine runs and verifies it through the
 * topo::Machine interface without knowing the family.
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/chain_engine.hh"
#include "sim/stats.hh"
#include "sim/time_accountant.hh"
#include "topo/machine.hh"
#include "trace/tracer.hh"
#include "vlsi/delay.hh"
#include "workload/network_cache.hh"
#include "workload/spec.hh"

namespace ot::workload {

using vlsi::ModelTime;

/** Machine shape and cost rules an instance resolves to. */
CacheKey cacheKeyFor(const InstanceSpec &inst);

/** The cost model matching cacheKeyFor(inst) (asserted by the cache). */
vlsi::CostModel costModelFor(const InstanceSpec &inst);

/** Outcome of one instance of a batch. */
struct InstanceReport
{
    InstanceSpec spec;
    /** Submission order index within the batch. */
    std::size_t index = 0;
    /** Farm shard (machine-shape group) the instance ran on. */
    std::size_t shard = 0;
    /** Did the NetworkCache already hold this instance's machine? */
    bool cacheHit = false;
    /** Result matched the sequential reference. */
    bool verified = false;
    /** Model time of this instance's run on its machine. */
    ModelTime time = 0;
    /** Parallel steps the machine charged. */
    std::uint64_t steps = 0;
    /** Chip area of the machine (lambda^2). */
    std::uint64_t area = 0;
};

/**
 * Run one instance on `m`: generate its seeded inputs, call the
 * machine's algorithm entry point, and check the result against the
 * sequential reference.  Fills out.verified, time, steps and area.
 * The machine is not reset first: a reused machine must be reset()
 * by the caller, a fresh one (with a tracer attached) need not be.
 */
void runInstance(const InstanceSpec &inst, topo::Machine &m,
                 InstanceReport &out);

/** Per-batch aggregate + per-instance outcomes. */
struct BatchReport
{
    /** Per-instance outcomes, in submission order. */
    std::vector<InstanceReport> instances;
    /** Farm completion time: max over shards of summed times. */
    ModelTime makespan = 0;
    /** Sum of all instance model times. */
    ModelTime totalWork = 0;
    /** Distinct machine shapes (= farm shards). */
    std::size_t shards = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;

    /** True iff every instance verified against its reference. */
    bool allVerified() const;

    /**
     * The report as JSON.  Contains only model-time-derived and
     * spec-derived data — no host timing, thread counts or pointers —
     * so the bytes are identical at every OT_HOST_THREADS.
     */
    std::string toJson() const;

    /** Human-readable table + aggregate lines (same data as toJson). */
    void writeText(std::ostream &os) const;
};

/** Executes WorkloadSpecs; owns the clock, stats and network cache. */
class BatchEngine
{
  public:
    /**
     * @param host_threads Lanes to shard the farm over: 0 = the
     *                     OT_HOST_THREADS switch, 1 = sequential.
     *                     Reports are bit-identical for every setting.
     */
    explicit BatchEngine(unsigned host_threads = 0);

    BatchEngine(const BatchEngine &) = delete;
    BatchEngine &operator=(const BatchEngine &) = delete;

    /**
     * Run one batch (validate()d first — empty batches and
     * non-power-of-two sizes assert).  The cache persists across
     * run() calls, so a repeated batch is served entirely by hits.
     */
    BatchReport run(const WorkloadSpec &spec);

    NetworkCache &cache() { return _cache; }
    sim::StatSet &stats() { return _stats; }
    sim::TimeAccountant &acct() { return _acct; }

    /** Model time accumulated over all run() calls. */
    ModelTime now() const { return _acct.now(); }

    /**
     * Attach a model-time tracer: per-instance spans, the charge
     * stream and the batch phase markers are recorded by the model
     * phase, in shard order.  nullptr detaches.
     */
    void
    setTracer(trace::Tracer *tracer)
    {
        _acct.setTracer(tracer);
        _engine.setTracer(tracer);
    }

    trace::Tracer *tracer() const { return _engine.tracer(); }

  private:
    /** One farm shard: a cache slot and the instances it serves. */
    struct Shard
    {
        CacheKey key;
        NetworkCache::Slot *slot = nullptr;
        std::vector<std::size_t> members;
    };

    sim::TimeAccountant _acct;
    sim::StatSet _stats;
    sim::ChainEngine _engine;
    NetworkCache _cache;
};

} // namespace ot::workload
