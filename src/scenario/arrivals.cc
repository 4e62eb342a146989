#include "scenario/arrivals.hh"

#include <cassert>
#include <cmath>
#include <cstdint>

namespace ot::scenario {

namespace {

/** A real-valued gap rounded to the nearest tick, floored at 1 so
 *  time always advances. */
vlsi::ModelTime
toTicks(double g)
{
    if (g < 1.0)
        return 1;
    return static_cast<vlsi::ModelTime>(g + 0.5);
}

/**
 * The next inter-arrival gap for a diurnal process: an exponential
 * draw scaled by the instantaneous rate of a triangle wave.  At the
 * trough the rate is (100-amp)% of nominal, at the crest (100+amp)%.
 */
vlsi::ModelTime
diurnalGap(sim::Rng &gaps, const ArrivalConfig &a, vlsi::ModelTime now)
{
    double frac = static_cast<double>(now % a.period) /
                  static_cast<double>(a.period);
    double tri = frac < 0.5 ? 2.0 * frac : 2.0 - 2.0 * frac;
    double rate = (100.0 - a.ampPct + 2.0 * a.ampPct * tri) / 100.0;
    return toTicks(expReal(gaps, static_cast<double>(a.mean)) / rate);
}

} // namespace

double
expReal(sim::Rng &rng, double mean)
{
    assert(mean > 0.0);
    return -mean * std::log(rng.unitOpen());
}

vlsi::ModelTime
exponentialGap(sim::Rng &rng, vlsi::ModelTime mean)
{
    return toTicks(expReal(rng, static_cast<double>(mean)));
}

std::vector<Arrival>
generateArrivals(const ScenarioSpec &spec)
{
    validate(spec);
    const ArrivalConfig &a = spec.arrival;

    // One independent stream per decision kind: adding a client or
    // flipping seeds=vary never perturbs the arrival *times*.
    sim::Rng gaps(a.seed, 0);
    sim::Rng dwell(a.seed, 1);
    sim::Rng clientPick(a.seed, 2);
    sim::Rng mixPick(a.seed, 3);
    sim::Rng seedPick(a.seed, 4);

    std::uint64_t totalWeight = 0;
    for (const ClientConfig &c : spec.clients)
        totalWeight += c.weight;

    std::vector<Arrival> out;
    vlsi::ModelTime cursor = 0;
    // Bursty on-off state: arrivals happen only inside ON windows.
    vlsi::ModelTime winEnd = 0;
    if (a.kind == ArrivalKind::Bursty)
        winEnd = exponentialGap(dwell, a.onMean);

    while (a.maxArrivals == 0 || out.size() < a.maxArrivals) {
        switch (a.kind) {
          case ArrivalKind::Poisson:
            cursor += exponentialGap(gaps, a.mean);
            break;
          case ArrivalKind::Bursty:
            cursor += exponentialGap(gaps, a.mean);
            while (cursor > winEnd) {
                // Skip the OFF dwell; the residual gap carries into
                // the next ON window.
                vlsi::ModelTime over = cursor - winEnd;
                vlsi::ModelTime start =
                    winEnd + exponentialGap(dwell, a.offMean);
                winEnd = start + exponentialGap(dwell, a.onMean);
                cursor = start + over;
            }
            break;
          case ArrivalKind::Diurnal:
            cursor += diurnalGap(gaps, a, cursor);
            break;
        }
        if (cursor > a.duration)
            break;

        Arrival arr;
        arr.at = cursor;
        // Weighted client pick, then a uniform pick from its mix.
        std::uint64_t r = clientPick.uniform(0, totalWeight - 1);
        unsigned ci = 0;
        while (r >= spec.clients[ci].weight) {
            r -= spec.clients[ci].weight;
            ++ci;
        }
        arr.client = ci;
        const ClientConfig &c = spec.clients[ci];
        arr.mix = static_cast<unsigned>(mixPick.uniform(0, c.mix.size() - 1));
        arr.inst = c.mix[arr.mix];
        if (a.varySeeds)
            arr.inst.seed = seedPick.next();
        out.push_back(arr);
    }
    return out;
}

} // namespace ot::scenario
