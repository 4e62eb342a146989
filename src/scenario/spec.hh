/**
 * @file
 * Scenario specifications: traffic shape, scheduling policy, client
 * mixes and SLO targets for a *stream* of workload instances.
 *
 * A ScenarioSpec extends the WorkloadSpec idea from "which instances"
 * to "how they arrive": a seeded arrival process (Poisson, bursty
 * on-off, diurnal rate wave) emits InstanceSpec arrivals in model
 * time, drawn from weighted per-client mixes, and a pluggable
 * scheduler admits them to the machines the BatchEngine measures
 * (engine.hh).  Specs live in checked-in, diffable `.scn` files — a
 * line-oriented grammar that reuses the workload
 * `algo:net:n:model[:scaled][:seed=K]` instance tokens.  The parser
 * reports errors ("line N: ...") instead of dying, mirroring
 * workload/spec.hh, and describeInvalid() covers the semantic rules
 * the grammar cannot.
 *
 * The `.scn` grammar, one directive per line, `#` starts a comment:
 *
 *     scenario <name>
 *     arrival poisson|bursty|diurnal mean=T duration=T [max=K]
 *             [seed=K] [on=T] [off=T] [period=T] [amp=P]
 *             [seeds=vary|fixed]
 *     scheduler fifo|sjf|fair|edf [workers=K]
 *     queue [cap=K] [shed=drop|defer]
 *     client <name> [weight=K] [quota=K] [slo=T] [slo_pct=50|95|99]
 *            mix=<inst>[,<inst>...]
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vlsi/delay.hh"
#include "workload/spec.hh"

namespace ot::scenario {

/** The arrival processes a scenario can draw from. */
enum class ArrivalKind : std::uint8_t {
    Poisson, ///< memoryless: exponential inter-arrival gaps
    Bursty,  ///< MMPP-style on-off: Poisson inside exponential
             ///< ON dwells, silent through OFF dwells
    Diurnal, ///< Poisson with a triangle-wave rate over one period
};

/** The scheduling policies (scheduler.hh implements them). */
enum class SchedulerKind : std::uint8_t {
    Fifo,      ///< arrival order
    Sjf,       ///< shortest job first, by cached shape estimates
    FairShare, ///< least-served client first, FIFO within a client
    Edf,       ///< earliest deadline (arrival + client SLO) first
};

/** What happens to an arrival that finds the admission queue full. */
enum class ShedPolicy : std::uint8_t {
    Drop,  ///< reject it outright
    Defer, ///< park it in a backlog; re-admitted when space frees
};

/** "fifo", "sjf", "fair" or "edf". */
std::string toString(SchedulerKind kind);

/** Parse a scheduler name; false on anything but the four above. */
bool schedulerFromString(const std::string &s, SchedulerKind &out);

/** The arrival process of a scenario, all in model time. */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /** Mean inter-arrival gap (during ON dwells for Bursty). */
    vlsi::ModelTime mean = 0;
    /** Generation horizon: no arrivals after this model time. */
    vlsi::ModelTime duration = 0;
    /** Hard cap on the number of arrivals (0 = horizon only). */
    std::size_t maxArrivals = 0;
    /** Seed of every stream the generator derives. */
    std::uint64_t seed = 1;
    /** Bursty: mean ON dwell. */
    vlsi::ModelTime onMean = 0;
    /** Bursty: mean OFF dwell. */
    vlsi::ModelTime offMean = 0;
    /** Diurnal: period of the rate wave. */
    vlsi::ModelTime period = 0;
    /** Diurnal: rate swing as an integer percent in [0, 99]. */
    unsigned ampPct = 0;
    /** Give every arrival a fresh input seed (else keep the mix's). */
    bool varySeeds = true;

    bool operator==(const ArrivalConfig &other) const = default;
};

/** One traffic class: a weighted mix of instances plus its SLO. */
struct ClientConfig
{
    std::string name;
    /** Share of arrivals, relative to the other clients' weights. */
    unsigned weight = 1;
    /** Max outstanding (queued + deferred + running) jobs; 0 = off. */
    unsigned quota = 0;
    /** Sojourn-time target in model time; 0 = no SLO. */
    vlsi::ModelTime slo = 0;
    /** Percentile the target applies to: 50, 95 or 99. */
    unsigned sloPct = 95;
    /** Instances this client draws from, uniformly. */
    std::vector<workload::InstanceSpec> mix;

    bool operator==(const ClientConfig &other) const = default;
};

/** A complete scenario: traffic, policy and clients. */
struct ScenarioSpec
{
    std::string name;
    ArrivalConfig arrival;
    SchedulerKind scheduler = SchedulerKind::Fifo;
    /** Model servers jobs are dispatched onto. */
    unsigned workers = 1;
    /** Admission-queue capacity; 0 = unbounded (never sheds). */
    std::size_t queueCap = 0;
    ShedPolicy shed = ShedPolicy::Drop;
    std::vector<ClientConfig> clients;
};

/**
 * Engine-side contract (mirrors workload::validate): asserts that
 * describeInvalid(spec) is empty.  CLI front ends call
 * describeInvalid() first and reject politely.
 */
void validate(const ScenarioSpec &spec);

/**
 * Non-fatal validation: "" when the spec is runnable, otherwise a
 * one-line description of the first problem found (missing name or
 * clients, zero rates/horizons, unbounded arrival counts, bad SLO
 * percentiles, mix sizes the machines would reject, ...).
 */
std::string describeInvalid(const ScenarioSpec &spec);

/**
 * Parse the `.scn` grammar (see the file comment).  Returns false
 * and sets `err` to "line N: ..." on malformed input.  The result
 * may still need describeInvalid() — the grammar cannot see semantic
 * problems like a missing arrival rate.
 */
bool parseScenario(const std::string &text, ScenarioSpec &out,
                   std::string &err);

/**
 * A small two-client smoke scenario (Poisson arrivals over mixed
 * sort/matmul sizes, two workers, bounded queue) used by tests and
 * `otsim scenario --demo`; examples/demo.scn is the checked-in
 * acceptance scenario.
 */
ScenarioSpec demoScenario();

} // namespace ot::scenario
