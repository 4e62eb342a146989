#include "baselines/psn.hh"

#include <algorithm>
#include <cassert>

#include "otn/registers.hh" // kNull
#include "vlsi/bitmath.hh"

namespace ot::baselines {

using otn::kNull;

PsnMachine::PsnMachine(std::size_t nodes, const CostModel &cost)
    : _nodes(vlsi::nextPow2(nodes ? nodes : 2)),
      _bits(vlsi::ilog2Ceil(_nodes)),
      _cost(cost),
      _layout(_nodes, cost.word().bits())
{
}

ModelTime
PsnMachine::shuffleStepCost() const
{
    // Bit-streamed across the worst shuffle wire: successive machine
    // steps overlap bit-serially, so a step's marginal cost is the
    // wire's first-bit latency plus one bit interval.
    return _cost.edgeDelay(_layout.shuffleLinkLength()) + 1;
}

ModelTime
PsnMachine::exchangeStepCost() const
{
    return _cost.edgeDelay(_layout.exchangeLinkLength()) + 1;
}

PsnSortResult
psnSort(PsnMachine &psn, const std::vector<std::uint64_t> &values)
{
    const std::size_t n = psn.nodes();
    const unsigned m = psn.addressBits();
    assert(values.size() <= n);

    ModelTime start = psn.now();
    sim::ScopedPhase phase(psn.acct(), "psn-sort");

    std::vector<std::uint64_t> a(n, kNull);
    std::copy(values.begin(), values.end(), a.begin());

    PsnSortResult result;

    // r = number of shuffles performed so far, mod m.  Logical pair
    // (x, x ^ 2^j) are exchange neighbours when r = (m - j) mod m.
    unsigned r = 0;
    auto shuffle_to = [&](unsigned target) {
        unsigned steps = (target + m - r) % m;
        for (unsigned s = 0; s < steps; ++s) {
            psn.charge(psn.shuffleStepCost());
            ++result.steps;
        }
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
            psn.charge(psn.exchangeStepCost());
            ++result.steps;
        }
    }
    // Unshuffle back to the identity placement and drain the words.
    shuffle_to(0);
    psn.charge(psn.cost().wordSeparation());

    result.sorted.assign(a.begin(),
                         a.begin() + static_cast<long>(values.size()));
    result.time = psn.now() - start;
    return result;
}

} // namespace ot::baselines
