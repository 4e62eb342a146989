/**
 * @file
 * The benchmark's workloads and the untraced end-to-end runs.
 *
 * Every input comes from the `--seed` argument: instance seeds and the
 * scenario's arrival seed are drawn from one sim::Rng seeded with it,
 * so the same seed always gives the same batch and the same stream.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "bench.hh"
#include "scenario/arrivals.hh"
#include "sim/rng.hh"

namespace perfbench {

namespace sc = ot::scenario;
namespace wl = ot::workload;
using ot::topo::Algo;

namespace {

struct Shape
{
    Algo algo;
    const char *net;
    std::size_t n;
};

wl::InstanceSpec
instance(const Shape &s, std::uint64_t seed)
{
    wl::InstanceSpec inst;
    inst.algo = s.algo;
    inst.net = s.net;
    inst.n = s.n;
    inst.model = ot::vlsi::DelayModel::Logarithmic;
    inst.seed = seed;
    return inst;
}

/**
 * One instance each of ten large shapes on a fresh engine at one lane:
 * what a one-shot `otsim batch` on big machines pays, dominated by
 * register-plane allocation and zeroing.
 */
Workload
largeCold(std::uint64_t seed)
{
    static const Shape shapes[] = {
        {Algo::Sort, "otn", 1024},
        {Algo::Sort, "otn", 2048},
        {Algo::Sort, "otc", 1024},
        {Algo::Sort, "otc", 2048},
        {Algo::ConnectedComponents, "otn", 256},
        {Algo::ConnectedComponents, "mesh", 128},
        {Algo::BoolMatMul, "otn", 128},
        {Algo::MatMul, "otn", 128},
        {Algo::MatMul, "otc", 128},
        {Algo::Mst, "otn", 128},
    };
    Workload w;
    w.name = "large_cold";
    ot::sim::Rng rng(seed);
    for (const Shape &s : shapes)
        w.batch.instances.push_back(instance(s, rng.next()));
    return w;
}

/**
 * Mid-size instances over eight shapes of unequal cost at `nproc`
 * lanes: with a primed cache every acquire is a hit and every instance
 * a reset, so this is the farm-sharding workload.
 */
Workload
farmMid(std::uint64_t seed, unsigned nproc)
{
    static const Shape shapes[] = {
        {Algo::Sort, "otn", 256},
        {Algo::Sort, "otn", 512},
        {Algo::Sort, "otc", 256},
        {Algo::Sort, "otc", 512},
        {Algo::ConnectedComponents, "otn", 64},
        {Algo::Mst, "otn", 64},
        {Algo::MatMul, "otn", 64},
        {Algo::BoolMatMul, "otn", 64},
    };
    constexpr int kCopies = 8;
    Workload w;
    w.name = "farm_mid";
    w.hostThreads = nproc;
    ot::sim::Rng rng(seed);
    for (int c = 0; c < kCopies; ++c)
        for (const Shape &s : shapes)
            w.batch.instances.push_back(instance(s, rng.next()));
    return w;
}

/**
 * A client drawing uniformly from algos x {otn,otc,mesh,fattree} x
 * N in {16,32,64}, each shape with kInputsPerShape input seeds.
 */
sc::ClientConfig
client(const char *name, unsigned weight, std::initializer_list<Algo> algos,
       ot::sim::Rng &seeds)
{
    constexpr int kInputsPerShape = 8;
    sc::ClientConfig c;
    c.name = name;
    c.weight = weight;
    for (Algo a : algos)
        for (const char *net : {"otn", "otc", "mesh", "fattree"})
            for (std::size_t n : {16, 32, 64})
                for (int k = 0; k < kInputsPerShape; ++k)
                    c.mix.push_back(instance({a, net, n}, seeds.next()));
    return c;
}

/**
 * A seeded Poisson stream of small instances (all six algorithms, four
 * topologies, N in {16, 32, 64}) measured once and replayed under all
 * four policies: host time goes to primitive replay, ChainEngine
 * dispatch, verification and the scenario layer, not to machine build.
 *
 * The stream is ten times longer than the clients' mixes, so nearly
 * every mix entry arrives at least once and the measured batch has the
 * same composition for every seed; the seed moves the inputs and the
 * arrival sequence.
 */
Workload
smallStream(std::uint64_t seed)
{
    ot::sim::Rng seeds(seed);
    sc::ScenarioSpec spec;
    spec.name = "small_stream";
    spec.arrival.kind = sc::ArrivalKind::Poisson;
    spec.arrival.mean = 2000;
    spec.arrival.duration = ot::vlsi::ModelTime{1} << 40;
    spec.arrival.maxArrivals = 6000;
    spec.arrival.seed = seeds.next();
    spec.arrival.varySeeds = false;
    spec.workers = 4;
    spec.queueCap = 32;
    spec.shed = sc::ShedPolicy::Defer;

    sc::ClientConfig interactive = client(
        "interactive", 3, {Algo::Sort, Algo::ConnectedComponents}, seeds);
    interactive.slo = 30000;
    sc::ClientConfig analytics =
        client("analytics", 2, {Algo::MatMul, Algo::BoolMatMul}, seeds);
    analytics.slo = 120000;
    sc::ClientConfig graph =
        client("graph", 1, {Algo::Mst, Algo::ShortestPaths}, seeds);
    graph.quota = 8;
    spec.clients = {interactive, analytics, graph};

    Workload w;
    w.name = "small_stream";
    w.kind = Kind::Scenario;
    w.scenario = spec;
    std::set<wl::InstanceSpec> seen;
    for (const sc::Arrival &arr : sc::generateArrivals(spec))
        if (seen.insert(arr.inst).second)
            w.batch.instances.push_back(arr.inst);
    return w;
}

} // namespace

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "large_cold", "small_stream", "farm_mid"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed, unsigned nproc,
             Workload &out)
{
    if (name == "large_cold")
        out = largeCold(seed);
    else if (name == "small_stream")
        out = smallStream(seed);
    else if (name == "farm_mid")
        out = farmMid(seed, nproc);
    else
        return false;
    return true;
}

const std::vector<sc::SchedulerKind> &
comparedPolicies()
{
    static const std::vector<sc::SchedulerKind> kinds = {
        sc::SchedulerKind::Fifo, sc::SchedulerKind::Sjf,
        sc::SchedulerKind::FairShare, sc::SchedulerKind::Edf};
    return kinds;
}

std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
countOutcomes(const wl::BatchReport &rep, RunResult &out)
{
    for (const wl::InstanceReport &r : rep.instances) {
        ++out.attempted;
        out.unverified += r.verified ? 0 : 1;
        out.modelSteps += r.steps;
    }
}

RunResult
runCold(const Workload &w, unsigned threads)
{
    RunResult out;
    std::ostringstream text;
    if (w.kind == Kind::Batch) {
        wl::BatchEngine engine(threads);
        wl::BatchReport rep = engine.run(w.batch);
        out.report = rep.toJson();
        rep.writeText(text);
        countOutcomes(rep, out);
    } else {
        sc::ScenarioEngine engine(threads);
        std::vector<sc::ScenarioReport> reps;
        for (sc::SchedulerKind k : comparedPolicies())
            reps.push_back(engine.run(w.scenario, k));
        out.report = sc::compareJson(reps);
        bool ok = true;
        for (const sc::ScenarioReport &r : reps) {
            r.writeText(text);
            ok = ok && r.verified;
        }
        // The report keeps one verified bit for the whole stream.
        out.attempted = w.batch.instances.size();
        out.unverified = ok ? 0 : out.attempted;
    }
    return out;
}

std::vector<wl::CacheKey>
machineShapes(const Workload &w)
{
    std::vector<wl::CacheKey> shapes;
    std::set<wl::CacheKey> seen;
    for (const wl::InstanceSpec &inst : w.batch.instances) {
        wl::CacheKey key = wl::cacheKeyFor(inst);
        if (seen.insert(key).second)
            shapes.push_back(key);
    }
    return shapes;
}

double
timeSetup(const std::vector<wl::CacheKey> &shapes)
{
    wl::NetworkCache cache;
    Clock::time_point t0 = Clock::now();
    for (const wl::CacheKey &key : shapes)
        cache.acquire(key, key.cost());
    return secondsSince(t0);
}

bool
loadDigests(const std::string &path, DigestTable &out, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot read " + path;
        return false;
    }
    std::string line;
    for (int lineNo = 1; std::getline(in, line); ++lineNo) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string name, hex;
        std::uint64_t seed = 0;
        if (!(fields >> name >> seed >> hex) || hex.size() != 16) {
            err = path + ":" + std::to_string(lineNo) + ": malformed";
            return false;
        }
        out[{name, seed}] = hex;
    }
    return true;
}

} // namespace perfbench
