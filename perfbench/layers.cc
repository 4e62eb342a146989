/**
 * @file
 * The traced run and the layer probes.
 *
 * The traced run drives a workload through each layer's public calls
 * itself — NetworkCache::acquire, Machine::reset, the input generators,
 * the sequential references, Machine::run*, the report renderers, and
 * for scenarios generateArrivals and the per-policy replay — in the
 * order BatchEngine::runInstance uses, with one host-time span around
 * each call.  No library code is instrumented.  The report it assembles
 * is byte-compared with the engine's own, so the re-driven path is
 * checked to be the path the engine takes.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <sstream>

#include "bench.hh"
#include "graph/generators.hh"
#include "graph/reference_algorithms.hh"
#include "linalg/reference.hh"
#include "scenario/arrivals.hh"
#include "sim/chain_engine.hh"
#include "sim/rng.hh"
#include "simd/kernels.hh"
#include "simd/regfile.hh"
#include "trace/analysis.hh"

namespace perfbench {

namespace sc = ot::scenario;
namespace wl = ot::workload;
using ot::topo::Algo;

/** Keeps the probes' reductions observable, so none is optimized away. */
volatile std::uint64_t probeSink = 0;

int
SpanLog::open(const char *name, std::int64_t instance)
{
    Span s;
    s.name = name;
    s.parent = _stack.empty() ? -1 : _stack.back();
    s.instance = instance;
    _spans.push_back(s);
    const int id = static_cast<int>(_spans.size() - 1);
    _stack.push_back(id);
    _spans[id].start = Clock::now();
    return id;
}

void
SpanLog::close(int id)
{
    _spans[id].end = Clock::now();
    _stack.pop_back();
}

namespace {

double
seconds(const Span &s)
{
    return std::chrono::duration<double>(s.end - s.start).count();
}

// Input generators and the Boolean check, as workload/engine.cc draws
// them (same Rng call order, so the inputs and the reports match).

std::vector<std::uint64_t>
sortValues(std::size_t n, ot::sim::Rng &rng)
{
    std::vector<std::uint64_t> out(n);
    for (auto &x : out)
        x = rng.uniform(0, n - 1);
    return out;
}

ot::linalg::IntMatrix
randomIntMatrix(std::size_t n, ot::sim::Rng &rng)
{
    ot::linalg::IntMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            m(i, j) = rng.uniform(0, 9);
    return m;
}

ot::linalg::BoolMatrix
randomBoolMatrix(std::size_t n, ot::sim::Rng &rng)
{
    ot::linalg::BoolMatrix m(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            m(i, j) = rng.bernoulli(0.35) ? 1 : 0;
    return m;
}

bool
boolProductMatches(const ot::linalg::IntMatrix &got,
                   const ot::linalg::BoolMatrix &expect)
{
    if (got.rows() != expect.rows() || got.cols() != expect.cols())
        return false;
    for (std::size_t i = 0; i < got.rows(); ++i)
        for (std::size_t j = 0; j < got.cols(); ++j)
            if ((got(i, j) != 0) != (expect(i, j) != 0))
                return false;
    return true;
}

const char *
runSpanName(Algo algo)
{
    switch (algo) {
      case Algo::Sort:
        return "topo.run.sort";
      case Algo::MatMul:
        return "topo.run.matmul";
      case Algo::BoolMatMul:
        return "topo.run.boolmm";
      case Algo::ConnectedComponents:
        return "topo.run.cc";
      case Algo::Mst:
        return "topo.run.mst";
      case Algo::ShortestPaths:
        return "topo.run.sssp";
    }
    return "topo.run.?";
}

/** BatchEngine::runInstance, one span per layer call. */
void
driveInstance(const wl::InstanceSpec &inst, ot::topo::Machine &m,
              wl::InstanceReport &out, SpanLog &log)
{
    ot::sim::Rng rng(inst.seed);
    {
        Scope s(log, "topo.reset");
        m.reset();
    }
    const char *run = runSpanName(inst.algo);
    std::uint64_t area = 0;
    switch (inst.algo) {
      case Algo::Sort: {
        std::vector<std::uint64_t> values, expect;
        {
            Scope s(log, "workload.inputs");
            values = sortValues(inst.n, rng);
        }
        {
            Scope s(log, "workload.verify");
            expect = values;
            std::sort(expect.begin(), expect.end());
        }
        ot::topo::SortRun r;
        {
            Scope s(log, run);
            r = m.runSort(values);
        }
        {
            Scope s(log, "workload.verify");
            out.verified = r.sorted == expect;
        }
        out.time = r.time;
        area = r.area;
        break;
      }
      case Algo::MatMul: {
        ot::linalg::IntMatrix a, b;
        {
            Scope s(log, "workload.inputs");
            a = randomIntMatrix(inst.n, rng);
            b = randomIntMatrix(inst.n, rng);
        }
        ot::topo::MatMulRun r;
        {
            Scope s(log, run);
            r = m.runMatMul(a, b);
        }
        {
            Scope s(log, "workload.verify");
            out.verified = r.product == ot::linalg::matMul(a, b);
        }
        out.time = r.time;
        area = r.area;
        break;
      }
      case Algo::BoolMatMul: {
        ot::linalg::BoolMatrix a, b, expect;
        {
            Scope s(log, "workload.inputs");
            a = randomBoolMatrix(inst.n, rng);
            b = randomBoolMatrix(inst.n, rng);
        }
        {
            Scope s(log, "workload.verify");
            expect = ot::linalg::boolMatMul(a, b);
        }
        ot::topo::MatMulRun r;
        {
            Scope s(log, run);
            r = m.runBoolMatMul(a, b);
        }
        {
            Scope s(log, "workload.verify");
            out.verified = boolProductMatches(r.product, expect);
        }
        out.time = r.time;
        area = r.area;
        break;
      }
      case Algo::ConnectedComponents: {
        std::optional<ot::graph::Graph> g;
        std::vector<std::size_t> expect;
        {
            Scope s(log, "workload.inputs");
            g = ot::graph::randomGnp(inst.n, 0.1, rng);
        }
        {
            Scope s(log, "workload.verify");
            expect = ot::graph::connectedComponents(*g);
        }
        ot::topo::CcRun r;
        {
            Scope s(log, run);
            r = m.runConnectedComponents(*g);
        }
        {
            Scope s(log, "workload.verify");
            out.verified = r.labels == expect;
        }
        out.time = r.time;
        area = r.area;
        break;
      }
      case Algo::Mst: {
        std::optional<ot::graph::WeightedGraph> g;
        std::vector<ot::graph::Edge> expect;
        {
            Scope s(log, "workload.inputs");
            g = ot::graph::randomWeightedConnected(inst.n, 2 * inst.n, rng);
        }
        {
            Scope s(log, "workload.verify");
            expect = ot::graph::kruskalMsf(*g);
        }
        ot::topo::MstRun r;
        {
            Scope s(log, run);
            r = m.runMst(*g);
        }
        {
            Scope s(log, "workload.verify");
            out.verified = r.edges == expect;
        }
        out.time = r.time;
        area = r.area;
        break;
      }
      case Algo::ShortestPaths: {
        std::optional<ot::graph::WeightedGraph> g;
        std::size_t src = 0;
        std::vector<std::uint64_t> expect;
        {
            Scope s(log, "workload.inputs");
            g = ot::graph::randomWeightedConnected(inst.n, 2 * inst.n, rng);
            src = static_cast<std::size_t>(rng.uniform(0, inst.n - 1));
        }
        {
            Scope s(log, "workload.verify");
            expect = ot::graph::dijkstra(*g, src);
        }
        ot::topo::SsspRun r;
        {
            Scope s(log, run);
            r = m.runShortestPaths(*g, src);
        }
        {
            Scope s(log, "workload.verify");
            out.verified = r.dist == expect;
        }
        out.time = r.time;
        area = r.area;
        break;
      }
    }
    out.steps = m.steps();
    out.area = area ? area : m.area();
}

/**
 * BatchEngine::run at one host lane: resolve every instance to its
 * farm shard through the cache, then run the shards in order.
 */
wl::BatchReport
driveBatch(const wl::WorkloadSpec &spec, wl::NetworkCache &cache,
           SpanLog &log)
{
    wl::validate(spec);
    wl::BatchReport report;
    report.instances.resize(spec.instances.size());
    const std::uint64_t hits0 = cache.hits();
    const std::uint64_t misses0 = cache.misses();

    struct Shard
    {
        ot::topo::Machine *machine = nullptr;
        std::vector<std::size_t> members;
    };
    std::vector<Shard> shards;
    std::map<wl::CacheKey, std::size_t> shardOf;
    for (std::size_t i = 0; i < spec.instances.size(); ++i) {
        const wl::InstanceSpec &inst = spec.instances[i];
        wl::InstanceReport &r = report.instances[i];
        const auto idx = static_cast<std::int64_t>(i);
        Scope s(log, "workload.cache_hit", idx);
        const wl::CacheKey key = wl::cacheKeyFor(inst);
        auto [it, fresh] = shardOf.try_emplace(key, shards.size());
        if (fresh)
            shards.emplace_back();
        Shard &sh = shards[it->second];
        const std::uint64_t before = cache.hits();
        sh.machine = &cache.acquire(key, wl::costModelFor(inst));
        sh.members.push_back(i);
        r.spec = inst;
        r.index = i;
        r.shard = it->second;
        r.cacheHit = cache.hits() > before;
        if (!r.cacheHit)
            s.rename("topo.build");
    }
    report.shards = shards.size();
    report.cacheHits = cache.hits() - hits0;
    report.cacheMisses = cache.misses() - misses0;

    for (const Shard &sh : shards) {
        ot::vlsi::ModelTime chain = 0;
        for (std::size_t i : sh.members) {
            Scope s(log, "workload.instance", static_cast<std::int64_t>(i));
            driveInstance(spec.instances[i], *sh.machine,
                          report.instances[i], log);
            chain += report.instances[i].time;
        }
        report.makespan = std::max(report.makespan, chain);
    }
    for (const wl::InstanceReport &r : report.instances)
        report.totalWork += r.time;
    return report;
}

} // namespace

std::map<std::string, LayerTotal>
layerTotals(const SpanLog &log)
{
    const std::vector<Span> &spans = log.spans();
    std::vector<double> childS(spans.size(), 0);
    for (const Span &s : spans)
        if (s.parent >= 0)
            childS[s.parent] += seconds(s);
    std::map<std::string, LayerTotal> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LayerTotal &t = out[spans[i].name];
        t.totalS += seconds(spans[i]);
        t.selfS += seconds(spans[i]) - childS[i];
        ++t.calls;
    }
    return out;
}

TracedRun
runTraced(const Workload &w, sc::ScenarioEngine *memoized)
{
    TracedRun out;
    SpanLog &log = out.log;
    std::ostringstream text;
    {
        Scope root(log, "run");
        auto cache = std::make_unique<wl::NetworkCache>();
        if (w.kind == Kind::Batch) {
            wl::BatchReport rep = driveBatch(w.batch, *cache, log);
            {
                Scope s(log, "workload.report");
                out.result.report = rep.toJson();
                rep.writeText(text);
            }
            countOutcomes(rep, out.result);
        } else {
            std::vector<sc::Arrival> arrivals;
            {
                Scope s(log, "scenario.arrivals");
                arrivals = sc::generateArrivals(w.scenario);
            }
            // ScenarioEngine::measure: distinct instances, first
            // appearance order.
            wl::WorkloadSpec missing;
            std::set<wl::InstanceSpec> seen;
            for (const sc::Arrival &arr : arrivals)
                if (seen.insert(arr.inst).second)
                    missing.instances.push_back(arr.inst);
            wl::BatchReport rep = driveBatch(missing, *cache, log);
            countOutcomes(rep, out.result);

            std::vector<sc::ScenarioReport> reports;
            for (sc::SchedulerKind k : comparedPolicies()) {
                Scope s(log, "scenario.queue");
                reports.push_back(memoized->run(w.scenario, k));
            }
            {
                Scope s(log, "workload.report");
                out.result.report = sc::compareJson(reports);
                for (const sc::ScenarioReport &r : reports)
                    r.writeText(text);
            }
        }
        Scope s(log, "topo.free");
        cache.reset();
    }
    out.wallS = seconds(log.spans().front());
    return out;
}

bool
writeSpans(const std::string &path, const std::vector<TracedRun> &runs)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "run\tspan\tparent\tinstance\tname\tstart_ns\tend_ns\n";
    for (std::size_t r = 0; r < runs.size(); ++r) {
        const std::vector<Span> &spans = runs[r].log.spans();
        const Clock::time_point t0 = spans.front().start;
        auto ns = [&](Clock::time_point t) {
            return std::chrono::duration_cast<std::chrono::nanoseconds>(
                       t - t0)
                .count();
        };
        for (std::size_t i = 0; i < spans.size(); ++i)
            os << r << '\t' << i << '\t' << spans[i].parent << '\t'
               << spans[i].instance << '\t' << spans[i].name << '\t'
               << ns(spans[i].start) << '\t' << ns(spans[i].end) << '\n';
    }
    return static_cast<bool>(os);
}

ModelCounts
countModelPrimitives(const Workload &w)
{
    ModelCounts out;
    wl::NetworkCache cache;
    SpanLog untimed;
    ot::trace::Tracer tracer;
    tracer.setEnabled(true);
    for (const wl::InstanceSpec &inst : w.batch.instances) {
        ot::topo::Machine &m =
            cache.acquire(wl::cacheKeyFor(inst), wl::costModelFor(inst));
        tracer.clear();
        m.setTracer(&tracer);
        wl::InstanceReport r;
        driveInstance(inst, m, r, untimed);
        m.setTracer(nullptr);
        const ot::trace::Summary s = ot::trace::analyze(tracer);
        for (const auto &[name, p] : s.perPrimitive)
            out.perPrimitive[name] += p.count + p.unchargedCount;
        out.steps += r.steps;
        out.dropped += s.droppedEvents;
    }
    return out;
}

std::map<std::string, double>
probeKernels(ot::simd::Backend backend, std::size_t side,
             std::uint64_t seed)
{
    const ot::simd::KernelTable &k = ot::simd::kernelsFor(backend);
    const std::size_t words = side * side;
    ot::simd::RegFile planes(5, words);
    std::uint64_t *dst = planes.plane(0);
    std::uint64_t *a = planes.plane(1);
    std::uint64_t *b = planes.plane(2);
    std::uint64_t *key = planes.plane(3);
    std::uint64_t *cnt = planes.plane(4);
    ot::sim::Rng rng(seed);
    for (std::size_t j = 0; j < words; ++j) {
        a[j] = rng.uniform(0, words - 1);
        b[j] = rng.uniform(0, words - 1);
        // Half of the keys select their column (the eq-index slots).
        key[j] = j % side + rng.uniform(0, 1);
    }

    // ns per word: median of kReps full-plane passes after a warm-up;
    // `prepare` runs untimed before each pass.
    constexpr int kReps = 7;
    std::uint64_t sink = 0;
    auto time = [&](const std::function<void()> &pass,
                    const std::function<void()> &prepare = [] {}) {
        prepare();
        pass();
        std::vector<double> ns;
        for (int r = 0; r < kReps; ++r) {
            prepare();
            Clock::time_point t0 = Clock::now();
            pass();
            ns.push_back(secondsSince(t0) * 1e9 /
                         static_cast<double>(words));
        }
        return median(ns);
    };
    auto rows = [&](const std::function<void(std::size_t)> &row) {
        return [&, row] {
            for (std::size_t r = 0; r < side; ++r)
                row(r);
        };
    };

    std::map<std::string, double> out;
    out["fill"] = time([&] { k.fill(dst, words, 7); });
    out["countNonzero"] = time([&] { sink += k.countNonzero(a, words); });
    out["reduceSum"] = time([&] { sink += k.reduceSum(a, words); });
    out["reduceMin"] = time([&] { sink += k.reduceMin(a, words); });
    out["cmpRankRow"] = time(rows([&](std::size_t r) {
        k.cmpRankRow(dst + r * side, a + r * side, b + r * side, side, r);
    }));
    out["selectEqIndexRow"] = time(rows([&](std::size_t r) {
        k.selectEqIndexRow(dst + r * side, key + r * side, a + r * side,
                           side);
    }));
    out["scatterEqIndexRow"] = time(rows([&](std::size_t r) {
        k.scatterEqIndexRow(dst, cnt, key + r * side, a + r * side, side);
    }));
    out["pickEqIndexAccum"] = time(rows([&](std::size_t r) {
        std::uint64_t v = 0, matches = 0;
        k.pickEqIndexAccum(&v, &matches, key + r * side, a + r * side,
                           side, r);
        sink += v + matches;
    }));
    auto unsorted = [&] { std::memcpy(dst, a, words * sizeof *dst); };
    out["compexLinear"] =
        time([&] { k.compexLinear(dst, words, 8, 16); }, unsorted);
    constexpr std::size_t kCycle = 16;
    out["rotateCycles"] = time(
        [&] { k.rotateCycles(dst, words / kCycle, kCycle, kCycle); });

    probeSink = sink;
    return out;
}

double
probeParallelFor(unsigned lanes)
{
    ot::sim::TimeAccountant acct;
    ot::sim::StatSet stats;
    ot::sim::ChainEngine engine(acct, stats, lanes);
    const std::function<void(std::size_t)> body = [](std::size_t) {};
    constexpr std::size_t kIterations = 64;
    constexpr int kCalls = 400;
    constexpr int kBatches = 7;
    for (int c = 0; c < kCalls; ++c)
        engine.parallelFor(kIterations, body);
    std::vector<double> ns;
    for (int b = 0; b < kBatches; ++b) {
        Clock::time_point t0 = Clock::now();
        for (int c = 0; c < kCalls; ++c)
            engine.parallelFor(kIterations, body);
        ns.push_back(secondsSince(t0) * 1e9 / kCalls);
    }
    return median(ns);
}

} // namespace perfbench
