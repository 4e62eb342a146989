#include "topo/tree.hh"

#include <algorithm>
#include <cassert>

#include "otn/registers.hh" // kNull
#include "vlsi/bitmath.hh"

namespace ot::topo {

using otn::kNull;

TreeMachine::TreeMachine(const MachineSpec &spec)
    : Machine(spec),
      _tree(vlsi::nextPow2(spec.n ? spec.n : 1), cost().word().bits() + 2),
      _data(_tree.leaves(), kNull)
{
}

void
TreeMachine::reset()
{
    _acct.reset();
    std::fill(_data.begin(), _data.end(), kNull);
}

std::uint64_t
TreeMachine::area() const
{
    // Leaves in a row, pitch Theta(log N), tree in the channel above:
    // Theta(N log N) area (height Theta(log N)).
    std::uint64_t width = _data.size() * _tree.pitch();
    std::uint64_t height = _tree.pitch() + vlsi::logCeilAtLeast1(_data.size());
    return width * height;
}

ModelTime
TreeMachine::exchangeStepCost(std::size_t dist) const
{
    // Every exchange serializes through the one root: leaf -> root ->
    // leaf, whatever the distance.
    (void)dist;
    return 2 * broadcastCost() + cost().bitSerialOp();
}

ModelTime
TreeMachine::broadcastCost() const
{
    return cost().wordAlongPath(_tree.pathEdges());
}

ModelTime
TreeMachine::reduceCost() const
{
    return cost().reducePath(_tree.pathEdges());
}

void
TreeMachine::broadcast(std::uint64_t value)
{
    std::fill(_data.begin(), _data.end(), value);
    charge(broadcastCost());
}

std::uint64_t
TreeMachine::minReduce()
{
    charge(reduceCost());
    return *std::min_element(_data.begin(), _data.end());
}

std::uint64_t
TreeMachine::sumReduce()
{
    std::uint64_t total = 0;
    for (auto d : _data)
        if (d != kNull)
            total += d;
    charge(reduceCost());
    return total;
}

SortRun
TreeMachine::runSort(const std::vector<std::uint64_t> &values)
{
    assert(values.size() <= _data.size());
    const ModelTime start = now();
    std::fill(_data.begin(), _data.end(), kNull);
    std::copy(values.begin(), values.end(), _data.begin());
    // Input load: N words through the root, pipelined.
    charge(vlsi::CostModel::pipelineTotal(broadcastCost(), _data.size(),
                                          cost().wordSeparation()));

    SortRun r;
    r.sorted.reserve(values.size());
    for (std::size_t round = 0; round < values.size(); ++round) {
        const std::uint64_t m = minReduce();
        r.sorted.push_back(m);
        // Disable exactly one instance of the minimum (a root-to-leaf
        // acknowledge selects the leftmost match).
        charge(broadcastCost());
        *std::find(_data.begin(), _data.end(), m) = kNull;
    }
    r.time = now() - start;
    return r;
}

} // namespace ot::topo
