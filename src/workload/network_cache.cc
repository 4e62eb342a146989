#include "workload/network_cache.hh"

#include <cassert>

namespace ot::workload {

void
NetworkCache::checkCost(const CacheKey &key, const vlsi::CostModel &cost)
{
    assert(cost.delayModel() == key.model &&
           "workload: delay model mismatched within a cache key");
    assert(cost.word().bits() == key.wordBits &&
           "workload: word format mismatched within a cache key");
    assert(cost.scaledTrees() == key.scaled &&
           "workload: tree scaling mismatched within a cache key");
    (void)key;
    (void)cost;
}

NetworkCache::Slot &
NetworkCache::reserve(const CacheKey &key, const vlsi::CostModel &cost)
{
    checkCost(key, cost);
    auto [it, fresh] = _machines.try_emplace(key);
    ++(fresh ? _misses : _hits);
    return it->second;
}

topo::Machine &
NetworkCache::fill(Slot &slot, const CacheKey &key)
{
    if (!slot)
        slot = topo::registry().build(key);
    return *slot;
}

topo::Machine &
NetworkCache::acquire(const CacheKey &key, const vlsi::CostModel &cost)
{
    Slot &slot = reserve(key, cost);
    try {
        return fill(slot, key);
    } catch (...) {
        _machines.erase(key);
        throw;
    }
}

void
NetworkCache::dropEmpty()
{
    std::erase_if(_machines, [](const auto &kv) { return !kv.second; });
}

} // namespace ot::workload
