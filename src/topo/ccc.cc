#include "topo/ccc.hh"

#include <algorithm>
#include <cassert>

#include "otn/registers.hh" // kNull
#include "vlsi/bitmath.hh"

namespace ot::topo {

using otn::kNull;

CccMachine::CccMachine(const MachineSpec &spec)
    : Machine(spec),
      _elements(vlsi::nextPow2(spec.n ? spec.n : 2)),
      _dims(vlsi::ilog2Ceil(_elements)),
      _layout(_elements, cost().word().bits())
{
}

ModelTime
CccMachine::cubeHopCost() const
{
    return cost().edgeDelay(_layout.cubeLinkLength()) + 1;
}

ModelTime
CccMachine::cycleHopCost() const
{
    return cost().edgeDelay(_layout.cycleLinkLength()) + 1;
}

ModelTime
CccMachine::exchangeStepCost(std::size_t dist) const
{
    // One DESCEND step: a cube wire plus a cycle rotation.
    (void)dist;
    return cubeHopCost() + cycleHopCost();
}

ModelTime
CccMachine::broadcastCost() const
{
    return _dims * (cubeHopCost() + cycleHopCost());
}

SortRun
CccMachine::runSort(const std::vector<std::uint64_t> &values)
{
    const std::size_t n = _elements;
    const unsigned m = _dims;
    assert(values.size() <= n);

    const ModelTime start = now();
    sim::ScopedPhase phase(_acct, "ccc-sort");

    std::vector<std::uint64_t> a(n, kNull);
    std::copy(values.begin(), values.end(), a.begin());

    for (std::size_t size = 2; size <= n; size <<= 1) {
        // One DESCEND pass: dimensions log(size)-1 down to 0.  The
        // cycle first rotates the highest needed dimension into place
        // (up to m cycle steps, pipelined), then performs one cube
        // step per dimension.
        unsigned s = vlsi::ilog2Ceil(size);
        for (unsigned r = 0; r < m - s + 1; ++r)
            charge(cycleHopCost());
        for (std::size_t d = size / 2; d >= 1; d >>= 1) {
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
            charge(cubeHopCost());
        }
    }
    // Final word drain.
    charge(cost().wordSeparation());

    SortRun r;
    r.sorted.assign(a.begin(), a.begin() + static_cast<long>(values.size()));
    r.time = now() - start;
    return r;
}

} // namespace ot::topo
