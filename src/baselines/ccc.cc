#include "baselines/ccc.hh"

#include <algorithm>
#include <cassert>

#include "otn/registers.hh" // kNull
#include "vlsi/bitmath.hh"

namespace ot::baselines {

using otn::kNull;

CccMachine::CccMachine(std::size_t elements, const CostModel &cost)
    : _elements(vlsi::nextPow2(elements ? elements : 2)),
      _dims(vlsi::ilog2Ceil(_elements)),
      _cost(cost),
      _layout(_elements, cost.word().bits())
{
}

ModelTime
CccMachine::cubeStepCost() const
{
    return _cost.edgeDelay(_layout.cubeLinkLength()) + 1;
}

ModelTime
CccMachine::cycleStepCost() const
{
    return _cost.edgeDelay(_layout.cycleLinkLength()) + 1;
}

CccSortResult
cccSort(CccMachine &ccc, const std::vector<std::uint64_t> &values)
{
    const std::size_t n = ccc.elements();
    const unsigned m = ccc.dims();
    assert(values.size() <= n);

    ModelTime start = ccc.now();
    sim::ScopedPhase phase(ccc.acct(), "ccc-sort");

    std::vector<std::uint64_t> a(n, kNull);
    std::copy(values.begin(), values.end(), a.begin());

    CccSortResult result;

    for (std::size_t size = 2; size <= n; size <<= 1) {
        // One DESCEND pass: dimensions log(size)-1 down to 0.  The
        // cycle first rotates the highest needed dimension into place
        // (up to m cycle steps, pipelined), then performs one cube
        // step per dimension.
        unsigned s = vlsi::ilog2Ceil(size);
        for (unsigned r = 0; r < m - s + 1; ++r) {
            ccc.charge(ccc.cycleStepCost());
            ++result.steps;
        }
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
            ccc.charge(ccc.cubeStepCost());
            ++result.steps;
        }
    }
    // Final word drain.
    ccc.charge(ccc.cost().wordSeparation());

    result.sorted.assign(a.begin(),
                         a.begin() + static_cast<long>(values.size()));
    result.time = ccc.now() - start;
    return result;
}

} // namespace ot::baselines
