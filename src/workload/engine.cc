#include "workload/engine.hh"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <map>
#include <sstream>

#include "graph/generators.hh"
#include "graph/reference_algorithms.hh"
#include "linalg/reference.hh"
#include "sim/rng.hh"

namespace ot::workload {

namespace {

/** Input values of a sort instance. */
std::vector<std::uint64_t>
sortValues(std::size_t n, sim::Rng &rng)
{
    std::vector<std::uint64_t> out(n);
    for (auto &x : out)
        x = rng.uniform(0, n - 1);
    return out;
}

/** Input matrices of a matmul instance (entries in [0, 9]). */
linalg::IntMatrix
randomIntMatrix(std::size_t n, sim::Rng &rng)
{
    linalg::IntMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            m(i, j) = rng.uniform(0, 9);
    return m;
}

/** Input matrices of a Boolean matmul instance (density 0.35). */
linalg::BoolMatrix
randomBoolMatrix(std::size_t n, sim::Rng &rng)
{
    linalg::BoolMatrix m(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            m(i, j) = rng.bernoulli(0.35) ? 1 : 0;
    return m;
}

/** Nonzero-pattern equality of a product against the Boolean ref. */
bool
boolProductMatches(const linalg::IntMatrix &got,
                   const linalg::BoolMatrix &expect)
{
    if (got.rows() != expect.rows() || got.cols() != expect.cols())
        return false;
    for (std::size_t i = 0; i < got.rows(); ++i)
        for (std::size_t j = 0; j < got.cols(); ++j)
            if ((got(i, j) != 0) != (expect(i, j) != 0))
                return false;
    return true;
}

} // namespace

CacheKey
cacheKeyFor(const InstanceSpec &inst)
{
    return topo::resolveSpec(inst.net, inst.algo, inst.n, inst.model,
                             inst.scaled);
}

vlsi::CostModel
costModelFor(const InstanceSpec &inst)
{
    return cacheKeyFor(inst).cost();
}

bool
BatchReport::allVerified() const
{
    for (const InstanceReport &r : instances)
        if (!r.verified)
            return false;
    return true;
}

std::string
BatchReport::toJson() const
{
    std::ostringstream os;
    os << "{\"instances\": [";
    for (const InstanceReport &r : instances) {
        if (r.index)
            os << ",";
        os << "\n  {\"index\": " << r.index;
        os << ", \"algo\": \"" << toString(r.spec.algo) << "\"";
        os << ", \"net\": \"" << r.spec.net << "\"";
        os << ", \"n\": " << r.spec.n;
        os << ", \"model\": \"" << shortName(r.spec.model) << "\"";
        os << ", \"scaled\": " << (r.spec.scaled ? "true" : "false");
        os << ", \"seed\": " << r.spec.seed;
        os << ", \"shard\": " << r.shard;
        os << ", \"cache\": \"" << (r.cacheHit ? "hit" : "miss") << "\"";
        os << ", \"verified\": " << (r.verified ? "true" : "false");
        os << ", \"model_time\": " << r.time;
        os << ", \"steps\": " << r.steps;
        os << ", \"area\": " << r.area << "}";
    }
    os << "\n], \"aggregate\": {";
    os << "\"instances\": " << instances.size();
    os << ", \"shards\": " << shards;
    os << ", \"model_makespan\": " << makespan;
    os << ", \"model_total_work\": " << totalWork;
    os << ", \"cache_hits\": " << cacheHits;
    os << ", \"cache_misses\": " << cacheMisses;
    os << ", \"verified\": " << (allVerified() ? "true" : "false");
    os << "}}\n";
    return os.str();
}

void
BatchReport::writeText(std::ostream &os) const
{
    os << std::left << std::setw(4) << "#" << std::setw(8) << "algo"
       << std::setw(5) << "net" << std::right << std::setw(6) << "n"
       << "  " << std::left << std::setw(7) << "model" << std::setw(6)
       << "cache" << std::setw(4) << "ok" << std::right << std::setw(12)
       << "time" << std::setw(14) << "area" << "\n";
    for (const InstanceReport &r : instances) {
        os << std::left << std::setw(4) << r.index << std::setw(8)
           << toString(r.spec.algo) << std::setw(5) << r.spec.net
           << std::right << std::setw(6)
           << r.spec.n << "  " << std::left << std::setw(7)
           << shortName(r.spec.model) << std::setw(6)
           << (r.cacheHit ? "hit" : "miss") << std::setw(4)
           << (r.verified ? "yes" : "NO") << std::right << std::setw(12)
           << r.time << std::setw(14) << r.area << "\n";
    }
    os << instances.size() << " instances on " << shards
       << " machine(s): makespan " << makespan << ", total work "
       << totalWork << ", cache " << cacheHits << " hit(s) / "
       << cacheMisses << " miss(es), "
       << (allVerified() ? "all verified" : "VERIFICATION FAILED")
       << "\n";
}

BatchEngine::BatchEngine(unsigned host_threads)
    : _engine(_acct, _stats, host_threads)
{
}

BatchReport
BatchEngine::run(const WorkloadSpec &spec)
{
    validate(spec);

    BatchReport report;
    report.instances.resize(spec.instances.size());

    const std::uint64_t hits0 = _cache.hits();
    const std::uint64_t misses0 = _cache.misses();

    // Resolve instances to farm shards, in submission order: one shard
    // per distinct machine shape, each backed by one cache slot.  The
    // lookups run on the main thread (the cache is not locked), and
    // hit/miss per instance is deterministic by construction.  A miss
    // only reserves its slot; the lane that runs the shard builds it.
    std::vector<Shard> shards;
    std::map<CacheKey, std::size_t> shardOf;
    for (std::size_t i = 0; i < spec.instances.size(); ++i) {
        const InstanceSpec &inst = spec.instances[i];
        const CacheKey key = cacheKeyFor(inst);
        const vlsi::CostModel cost = costModelFor(inst);

        auto [it, fresh] = shardOf.try_emplace(key, shards.size());
        if (fresh) {
            Shard sh;
            sh.key = key;
            shards.push_back(sh);
        }
        Shard &sh = shards[it->second];

        const std::uint64_t before = _cache.hits();
        sh.slot = &_cache.reserve(key, cost);
        sh.members.push_back(i);

        InstanceReport &r = report.instances[i];
        r.spec = inst;
        r.index = i;
        r.shard = it->second;
        r.cacheHit = _cache.hits() > before;
    }

    report.shards = shards.size();
    report.cacheHits = _cache.hits() - hits0;
    report.cacheMisses = _cache.misses() - misses0;
    _stats.counter("workload.instances") += spec.instances.size();
    _stats.counter("workload.shards") += shards.size();
    _stats.counter("workload.cache.hit") += report.cacheHits;
    _stats.counter("workload.cache.miss") += report.cacheMisses;

    // Host phase: lanes claim shards in order and run them in parallel
    // (disjoint machines); instances within a shard queue on their
    // shared machine, which the claiming lane builds first if its slot
    // is empty.  A lane touches only its shards' slots, machines and
    // report slots.
    try {
        _engine.hostFor(shards.size(), [&](std::size_t s) {
            const Shard &sh = shards[s];
            topo::Machine &m = NetworkCache::fill(*sh.slot, sh.key);
            for (std::size_t idx : sh.members) {
                m.reset();
                runInstance(spec.instances[idx], m, report.instances[idx]);
            }
        });
    } catch (...) {
        // A build that threw, or a shard never claimed, leaves an
        // empty slot: drop it so the next lookup is a miss that builds.
        _cache.dropEmpty();
        throw;
    }

    // Model phase: replay the farm's accounting in shard order.
    // parallelFor charges the longest shard chain — the farm makespan.
    sim::ScopedPhase phase(_acct, "workload.batch");
    report.makespan = _engine.parallelFor(shards.size(), [&](std::size_t s) {
        for (std::size_t idx : shards[s].members) {
            const InstanceSpec &inst = spec.instances[idx];
            const ModelTime dt = report.instances[idx].time;
            sim::ChainEngine::SpanArgs args;
            args.tree = static_cast<std::int64_t>(idx);
            args.words = inst.n;
            _engine.traceSpan("workload", toString(inst.algo), dt,
                              args);
            _engine.charge(dt);
            ++_engine.counter(std::string("workload.algo.") +
                              toString(inst.algo));
        }
    });

    for (const InstanceReport &r : report.instances)
        report.totalWork += r.time;
    return report;
}

void
runInstance(const InstanceSpec &inst, topo::Machine &m, InstanceReport &out)
{
    sim::Rng rng(inst.seed);
    std::uint64_t areaOverride = 0;
    switch (inst.algo) {
      case Algo::Sort: {
        auto values = sortValues(inst.n, rng);
        auto expect = values;
        std::sort(expect.begin(), expect.end());
        auto r = m.runSort(values);
        out.verified = r.sorted == expect;
        out.time = r.time;
        areaOverride = r.area;
        break;
      }
      case Algo::MatMul: {
        auto a = randomIntMatrix(inst.n, rng);
        auto b = randomIntMatrix(inst.n, rng);
        auto r = m.runMatMul(a, b);
        out.verified = r.product == linalg::matMul(a, b);
        out.time = r.time;
        areaOverride = r.area;
        break;
      }
      case Algo::BoolMatMul: {
        auto a = randomBoolMatrix(inst.n, rng);
        auto b = randomBoolMatrix(inst.n, rng);
        auto expect = linalg::boolMatMul(a, b);
        auto r = m.runBoolMatMul(a, b);
        out.verified = boolProductMatches(r.product, expect);
        out.time = r.time;
        areaOverride = r.area;
        break;
      }
      case Algo::ConnectedComponents: {
        auto g = graph::randomGnp(inst.n, 0.1, rng);
        auto expect = graph::connectedComponents(g);
        auto r = m.runConnectedComponents(g);
        out.verified = r.labels == expect;
        out.time = r.time;
        areaOverride = r.area;
        break;
      }
      case Algo::Mst: {
        auto g = graph::randomWeightedConnected(inst.n, 2 * inst.n, rng);
        auto expect = graph::kruskalMsf(g);
        auto r = m.runMst(g);
        out.verified = r.edges == expect;
        out.time = r.time;
        areaOverride = r.area;
        break;
      }
      case Algo::ShortestPaths: {
        auto g = graph::randomWeightedConnected(inst.n, 2 * inst.n, rng);
        auto src = static_cast<std::size_t>(
            rng.uniform(0, inst.n - 1));
        auto expect = graph::dijkstra(g, src);
        auto r = m.runShortestPaths(g, src);
        out.verified = r.dist == expect;
        out.time = r.time;
        areaOverride = r.area;
        break;
      }
    }
    out.steps = m.steps();
    out.area = areaOverride ? areaOverride : m.area();
}

} // namespace ot::workload
