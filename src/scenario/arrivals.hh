/**
 * @file
 * Deterministic arrival generation: spec -> the instance stream.
 *
 * generateArrivals() is a pure function of the ScenarioSpec — the
 * arrival seed fans out into five independent sim::Rng streams
 * (gaps, burst dwells, client pick, mix pick, input seeds), so the
 * sequence is bit-identical across runs, hosts and OT_HOST_THREADS,
 * and two processes sharing a seed see the same traffic.  Arrival
 * times are strictly increasing (gaps are floored at one model-time
 * tick), which the queueing engine (engine.hh) relies on.
 */

#pragma once

#include <vector>

#include "scenario/spec.hh"
#include "sim/rng.hh"
#include "vlsi/delay.hh"
#include "workload/spec.hh"

namespace ot::scenario {

/** Exponential variate with the given mean (> 0), as a double. */
double expReal(sim::Rng &rng, double mean);

/**
 * Exponential inter-arrival gap in model time: rounded to the nearest
 * tick and floored at 1 so time always advances.
 */
vlsi::ModelTime exponentialGap(sim::Rng &rng, vlsi::ModelTime mean);

/** One generated arrival: an instance entering the system. */
struct Arrival
{
    /** Model time the instance enters admission. */
    vlsi::ModelTime at = 0;
    /** Index into ScenarioSpec::clients. */
    unsigned client = 0;
    /**
     * Index into that client's mix: `inst` is
     * `clients[client].mix[mix]`, with a fresh input seed when
     * ArrivalConfig::varySeeds is on.
     */
    unsigned mix = 0;
    workload::InstanceSpec inst;

    bool operator==(const Arrival &other) const = default;
};

/**
 * Generate the scenario's arrival sequence (validate()s the spec).
 * Stops at the arrival horizon, or after maxArrivals when set.
 */
std::vector<Arrival> generateArrivals(const ScenarioSpec &spec);

} // namespace ot::scenario
