/**
 * @file
 * The scenario engine: arrival stream -> scheduler -> machine farm,
 * with latency-SLO reporting, all in model time.
 *
 * Service times are *measured*, not assumed: every distinct
 * InstanceSpec in the arrival stream runs once through the
 * BatchEngine (verified against its sequential reference, memoized
 * across runs — so comparing schedulers re-measures nothing), and an
 * event-driven queueing simulation then replays the arrival sequence
 * against `workers` model servers under the selected policy.
 * Arrivals, service times and the queue walk are pure functions of
 * the spec, so reports are byte-identical at every OT_HOST_THREADS
 * (the PR 1 contract — the BatchEngine measurement underneath holds
 * it too).
 *
 * The stream is resolved once per spec: the engine keeps the last
 * (arrival config, clients) it saw together with its arrivals and
 * their per-job service times and SJF estimates, so running one spec
 * under several policies generates and resolves the stream once and
 * each policy pays only for its queue walk.  Lookups go once per
 * (client, mix) entry, since every arrival drawn from an entry shares
 * its machine shape, and its instance too unless seeds vary.
 *
 * The SJF estimates deliberately come from the machine-shape cache
 * (the first measured time per NetworkCache key), not from per-job
 * oracle times: a serving system knows the machine shape of a
 * request, not its exact runtime.
 *
 * Admission control at each arrival: a client over its outstanding
 * quota is dropped; a full admission queue drops (ShedPolicy::Drop)
 * or parks the job in a backlog re-admitted as space frees
 * (ShedPolicy::Defer).  Sojourn time = completion - arrival, and the
 * report carries p50/p95/p99/mean/max overall and per client, plus
 * SLO pass/fail against each client's target percentile.
 */

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "scenario/arrivals.hh"
#include "scenario/spec.hh"
#include "trace/tracer.hh"
#include "vlsi/delay.hh"
#include "workload/engine.hh"
#include "workload/network_cache.hh"
#include "workload/spec.hh"

namespace ot::scenario {

using vlsi::ModelTime;

/**
 * Nearest-rank percentile (ceil(pct/100 * n)-th smallest) over
 * ascending samples; 0 on an empty vector.  pct in [1, 100].
 */
ModelTime percentileNearestRank(const std::vector<ModelTime> &sorted,
                                unsigned pct);

/** Sojourn-time (arrival -> completion) summary. */
struct SojournStats
{
    std::size_t count = 0;
    ModelTime p50 = 0;
    ModelTime p95 = 0;
    ModelTime p99 = 0;
    /** Integer mean (floor); 0 when count is 0. */
    ModelTime mean = 0;
    ModelTime max = 0;
};

/**
 * Summarize unsorted samples, reordering them: p50/p95/p99 are
 * selected with std::nth_element on nested prefixes (each percentile
 * lies in the prefix the next higher one left below it) and equal
 * percentileNearestRank over the sorted samples; max and mean come
 * from one pass.
 */
SojournStats summarize(std::vector<ModelTime> &samples);

/** The percentile `pct` (50, 95 or 99) that `s` already holds. */
ModelTime summarizedPercentile(const SojournStats &s, unsigned pct);

/** Per-client slice of a scenario run. */
struct ClientReport
{
    std::string name;
    std::size_t arrivals = 0;
    std::size_t completed = 0;
    std::size_t droppedQueue = 0;
    std::size_t droppedQuota = 0;
    std::size_t deferred = 0;
    SojournStats sojourn;
    /** The client's SLO target; 0 = none (sloPass vacuously true). */
    ModelTime sloTarget = 0;
    unsigned sloPct = 95;
    /** The observed sojourn percentile the target applies to. */
    ModelTime sloObserved = 0;
    /** observed <= target and nothing dropped (targets only). */
    bool sloPass = true;
};

/** Outcome of one job (arrival) in the queueing simulation. */
struct JobOutcome
{
    std::size_t job = 0;
    unsigned client = 0;
    ModelTime arrive = 0;
    ModelTime start = 0;
    ModelTime complete = 0;
    /** Measured model service time of the job's instance. */
    ModelTime service = 0;
    bool completed = false;
    bool deferred = false;
    bool droppedQueue = false;
    bool droppedQuota = false;

    bool operator==(const JobOutcome &other) const = default;
};

/** Aggregate + per-client + per-job outcomes of one scenario run. */
struct ScenarioReport
{
    std::string scenario;
    SchedulerKind scheduler = SchedulerKind::Fifo;
    unsigned workers = 1;
    /** The spec's arrival horizon (for rate math in consumers). */
    ModelTime horizon = 0;
    std::size_t arrivals = 0;
    std::size_t completed = 0;
    std::size_t droppedQueue = 0;
    std::size_t droppedQuota = 0;
    std::size_t deferred = 0;
    /** Last completion time; 0 when nothing completed. */
    ModelTime makespan = 0;
    /** Summed service time of completed jobs. */
    ModelTime totalService = 0;
    /** totalService * 1000 / (makespan * workers); 0 if no makespan. */
    unsigned utilizationPermille = 0;
    SojournStats sojourn;
    std::vector<ClientReport> clients;
    /** Per-job outcomes in arrival order (not serialized to JSON). */
    std::vector<JobOutcome> jobs;
    /** Every measured instance matched its sequential reference. */
    bool verified = true;
    /** Every client with a target passed it. */
    bool sloPass = true;

    /**
     * The report as JSON (jobs elided).  Only model-time- and
     * spec-derived integers and fixed strings — no host timing — so
     * the bytes are identical at every OT_HOST_THREADS.
     */
    std::string toJson() const;

    /** Human-readable summary (same data as toJson). */
    void writeText(std::ostream &os) const;
};

/**
 * One JSON document wrapping the reports of one scenario run under
 * several policies: {"scenario": ..., "reports": [...]}.
 */
std::string compareJson(const std::vector<ScenarioReport> &reports);

/** Runs scenarios; owns the BatchEngine and the measurement memo. */
class ScenarioEngine
{
  public:
    /**
     * @param host_threads Passed to the BatchEngine measuring the
     *                     instances: 0 = the OT_HOST_THREADS switch.
     *                     Reports are bit-identical for every value.
     */
    explicit ScenarioEngine(unsigned host_threads = 0);

    ScenarioEngine(const ScenarioEngine &) = delete;
    ScenarioEngine &operator=(const ScenarioEngine &) = delete;

    /** Run the spec under its own scheduler directive. */
    ScenarioReport run(const ScenarioSpec &spec);

    /**
     * Run the spec under `scheduler` (ignoring its directive): the
     * comparison entry point — the arrival stream and measurements
     * are shared, only the policy differs.
     */
    ScenarioReport run(const ScenarioSpec &spec,
                       SchedulerKind scheduler);

    workload::BatchEngine &batch() { return _batch; }
    sim::StatSet &stats() { return _batch.stats(); }

    /**
     * Attach a model-time tracer: the measurement runs record their
     * spans/charges through the BatchEngine, and the queue walk adds
     * one "scenario" span per completed job (start -> completion).
     * nullptr detaches.
     */
    void
    setTracer(trace::Tracer *tracer)
    {
        _batch.setTracer(tracer);
        _tracer = tracer;
    }

  private:
    /**
     * One arrival stream resolved against the measurement memo: the
     * arrivals plus, per job, the measured service time and the SJF
     * estimate.  Keyed by the spec parts that determine it.
     */
    struct ResolvedStream
    {
        ArrivalConfig arrival;
        std::vector<ClientConfig> clients;
        std::vector<Arrival> arrivals;
        std::vector<ModelTime> service;
        std::vector<ModelTime> estimate;
    };

    /** The spec's stream: the kept one when the spec matches it,
     *  otherwise generated, measured and resolved afresh. */
    const ResolvedStream &resolve(const ScenarioSpec &spec);

    /**
     * Measure every not-yet-seen instance among `candidates` (the
     * stream's instances in first-appearance order, deduplicated on
     * (client, mix) when seeds are fixed).
     */
    void measure(
        const std::vector<const workload::InstanceSpec *> &candidates);

    workload::BatchEngine _batch;
    /** Measured model service time per distinct instance. */
    std::map<workload::InstanceSpec, ModelTime> _serviceTime;
    /** First measured time per machine shape (the SJF estimates). */
    std::map<workload::CacheKey, ModelTime> _estimate;
    bool _allVerified = true;
    /** The last stream resolved (values in the memos never change,
     *  so a kept stream stays valid for its spec). */
    std::optional<ResolvedStream> _stream;
    trace::Tracer *_tracer = nullptr;
};

} // namespace ot::scenario
