#include "topo/mot_noc.hh"

#include <array>
#include <cassert>

#include "vlsi/bitmath.hh"

namespace ot::topo {

namespace {

/** Smallest power of two K with K * K >= n. */
std::size_t
gridSide(std::size_t n)
{
    std::size_t k = 1;
    while (k * k < n)
        k <<= 1;
    return k;
}

} // namespace

MotNocMachine::MotNocMachine(const MachineSpec &spec, bool diametrical)
    : Machine(spec), _k(gridSide(spec.n)), _diametrical(diametrical),
      _layout(_k, spec.wordBits),
      _engine(_acct, _stats)
{
}

void
MotNocMachine::reset()
{
    _acct.reset();
    _rootWords = 0;
}

std::uint64_t
MotNocMachine::area() const
{
    std::uint64_t a = _layout.metrics().area();
    if (_diametrical) {
        // K^2/2 diametrical links; summing their Manhattan lengths
        // (|K-1-2i| + |K-1-2j| pitches over all pairs) gives a total
        // extra wire of K^3/2 pitches, at unit track width.
        a += _k * _k * _k * _layout.pitch() / 2;
    }
    return a;
}

bool
MotNocMachine::crossesRoot(std::size_t a, std::size_t b) const
{
    return _k > 1 && (a ^ b) >= _k / 2;
}

ModelTime
MotNocMachine::treeRoute(std::size_t a, std::size_t b) const
{
    if (a == b)
        return 0;
    // Climb to the lowest common ancestor (level h above the leaves)
    // and descend: the same h edge lengths twice, leaf end first.
    const unsigned h = vlsi::ilog2Floor(a ^ b) + 1;
    std::vector<vlsi::WireLength> edges;
    edges.reserve(2 * h);
    for (unsigned lvl = 1; lvl <= h; ++lvl)
        edges.push_back(_layout.tree().edgeLength(lvl));
    for (unsigned lvl = h; lvl >= 1; --lvl)
        edges.push_back(_layout.tree().edgeLength(lvl));
    return cost().wordAlongPath(edges);
}

MotNocMachine::Route
MotNocMachine::routeCost(std::size_t src, std::size_t dst) const
{
    assert(src < n() && dst < n() && "mot: node index out of range");
    Route r;
    if (src == dst)
        return r;

    std::size_t r1 = src / _k, c1 = src % _k;
    const std::size_t r2 = dst / _k, c2 = dst % _k;

    if (_diametrical && crossesRoot(r1, r2) && crossesRoot(c1, c2)) {
        // Both axes would cross a root: take the diametrical link to
        // (K-1-r1, K-1-c1), which lands in the destination's quadrant,
        // then ride the trees half-locally.
        const std::uint64_t dx =
            r1 * 2 >= _k ? r1 * 2 - (_k - 1) : (_k - 1) - r1 * 2;
        const std::uint64_t dy =
            c1 * 2 >= _k ? c1 * 2 - (_k - 1) : (_k - 1) - c1 * 2;
        const std::array<vlsi::WireLength, 1> hop = {
            (dx + dy) * _layout.pitch()};
        r.time += cost().wordAlongPath(hop);
        r.diametricalHop = true;
        r1 = _k - 1 - r1;
        c1 = _k - 1 - c1;
    }

    // Row tree of r1 carries the packet to column c2, then the column
    // tree of c2 to row r2; each ride crosses its root iff the
    // endpoints lie in opposite halves.
    if (c1 != c2) {
        r.time += treeRoute(c1, c2);
        if (crossesRoot(c1, c2))
            ++r.rootCrossings;
    }
    if (r1 != r2) {
        r.time += treeRoute(r1, r2);
        if (crossesRoot(r1, r2))
            ++r.rootCrossings;
    }
    return r;
}

ModelTime
MotNocMachine::runTraffic(
    const std::vector<std::pair<std::size_t, std::size_t>> &pairs)
{
    ModelTime total = 0;
    for (const auto &[src, dst] : pairs) {
        const Route ro = routeCost(src, dst);
        sim::ChainEngine::SpanArgs args;
        args.words = ro.rootCrossings;
        _engine.traceSpan("mot", "route", ro.time, args);
        _engine.charge(ro.time);
        _rootWords += ro.rootCrossings;
        total += ro.time;
    }
    return total;
}

ModelTime
MotNocMachine::exchangeStepCost(std::size_t dist) const
{
    assert(dist >= 1 && dist < n() && "mot: exchange distance out of range");
    // The sweep's pairs (i, i xor dist) all route at the same tree
    // distance; price the representative (0, dist).  A power-of-two
    // distance moves along one axis only, so the diametrical links
    // never engage here — they pay off on two-axis traffic.
    return routeCost(0, dist).time + cost().bitSerialOp();
}

ModelTime
MotNocMachine::broadcastCost() const
{
    // Row tree to the root and down (all columns), then every column
    // tree: two full traversals.
    return 2 * cost().wordAlongPath(_layout.tree().pathEdges());
}

ModelTime
MotNocMachine::reduceCost() const
{
    return 2 * cost().reducePath(_layout.tree().pathEdges());
}

} // namespace ot::topo
