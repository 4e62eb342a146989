#include "topo/psn.hh"

#include <algorithm>
#include <cassert>

#include "otn/registers.hh" // kNull
#include "vlsi/bitmath.hh"

namespace ot::topo {

using otn::kNull;

PsnMachine::PsnMachine(const MachineSpec &spec)
    : Machine(spec),
      _nodes(vlsi::nextPow2(spec.n ? spec.n : 2)),
      _bits(vlsi::ilog2Ceil(_nodes)),
      _layout(_nodes, cost().word().bits())
{
}

ModelTime
PsnMachine::shuffleHopCost() const
{
    // Bit-streamed across the worst shuffle wire: successive machine
    // steps overlap bit-serially, so a step's marginal cost is the
    // wire's first-bit latency plus one bit interval.
    return cost().edgeDelay(_layout.shuffleLinkLength()) + 1;
}

ModelTime
PsnMachine::exchangeHopCost() const
{
    return cost().edgeDelay(_layout.exchangeLinkLength()) + 1;
}

ModelTime
PsnMachine::exchangeStepCost(std::size_t dist) const
{
    // Stone's realization: shuffle until the distance bit reaches the
    // LSB (log N shuffles in the worst case), then exchange.
    (void)dist;
    return _bits * shuffleHopCost() + exchangeHopCost();
}

ModelTime
PsnMachine::broadcastCost() const
{
    // Recursive doubling over the shuffle-exchange pair.
    return _bits * (shuffleHopCost() + exchangeHopCost());
}

SortRun
PsnMachine::runSort(const std::vector<std::uint64_t> &values)
{
    const std::size_t n = _nodes;
    const unsigned m = _bits;
    assert(values.size() <= n);

    const ModelTime start = now();
    sim::ScopedPhase phase(_acct, "psn-sort");

    std::vector<std::uint64_t> a(n, kNull);
    std::copy(values.begin(), values.end(), a.begin());

    // r = number of shuffles performed so far, mod m.  Logical pair
    // (x, x ^ 2^j) are exchange neighbours when r = (m - j) mod m.
    unsigned r = 0;
    auto shuffle_to = [&](unsigned target) {
        unsigned steps = (target + m - r) % m;
        for (unsigned s = 0; s < steps; ++s)
            charge(shuffleHopCost());
        r = target;
    };

    for (std::size_t size = 2; size <= n; size <<= 1) {
        for (std::size_t d = size / 2; d >= 1; d >>= 1) {
            unsigned j = vlsi::ilog2Floor(d);
            shuffle_to((m - j) % m);
            for (std::size_t l = 0; l < n; ++l) {
                std::size_t p = l ^ d;
                if (p <= l)
                    continue;
                bool ascending = (l & size) == 0;
                bool out_of_order = ascending ? (a[l] > a[p])
                                              : (a[l] < a[p]);
                if (out_of_order)
                    std::swap(a[l], a[p]);
            }
            // MSB-first comparison streams with the bits, so the
            // marginal cost of the compare-exchange is one step, not a
            // full word time (the drain is charged once at the end).
            charge(exchangeHopCost());
        }
    }
    // Unshuffle back to the identity placement and drain the words.
    shuffle_to(0);
    charge(cost().wordSeparation());

    SortRun out;
    out.sorted.assign(a.begin(), a.begin() + static_cast<long>(values.size()));
    out.time = now() - start;
    return out;
}

} // namespace ot::topo
