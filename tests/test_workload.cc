/**
 * @file
 * The batched workload engine: cache hit/miss semantics (also when
 * farm lanes build the machines, and when a build throws), the farm
 * makespan rule (max over shards of summed instance times), and the
 * determinism contract — reports, trace streams and their truncation
 * point byte-identical at every host-thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "topo/machine.hh"
#include "topo/registry.hh"
#include "trace/tracer.hh"
#include "vlsi/word.hh"
#include "workload/engine.hh"

namespace {

using namespace ot::workload;
using ot::vlsi::DelayModel;

InstanceSpec
inst(Algo algo, const char *net, std::size_t n,
     DelayModel model = DelayModel::Logarithmic, std::uint64_t seed = 1)
{
    return {algo, net, n, model, false, seed};
}

TEST(CacheKeyTest, DistinguishesMachineShapes)
{
    auto otn_sort = cacheKeyFor(inst(Algo::Sort, "otn", 32));
    auto otc_sort = cacheKeyFor(inst(Algo::Sort, "otc", 32));
    auto otc_cc =
        cacheKeyFor(inst(Algo::ConnectedComponents, "otc", 32));
    auto otc_bool = cacheKeyFor(inst(Algo::BoolMatMul, "otc", 32));

    EXPECT_EQ(otn_sort.topo, "otn");
    EXPECT_EQ(otc_sort.topo, "otc");
    EXPECT_EQ(otc_cc.topo, "otc-emu");
    EXPECT_EQ(otc_bool.topo, "otc-emu");
    // SORT-OTC streams cycles of log N; the Table II Boolean machine
    // uses cycles of log^2 N.
    EXPECT_EQ(otc_sort.cycleLen, 5u);
    EXPECT_EQ(otc_bool.cycleLen, 25u);
    EXPECT_NE(otc_cc, otc_bool);
}

TEST(CacheKeyTest, SameShapeSameKeyDifferentSeed)
{
    auto a = cacheKeyFor(inst(Algo::Sort, "otn", 32,
                              DelayModel::Logarithmic, 1));
    auto b = cacheKeyFor(inst(Algo::Sort, "otn", 32,
                              DelayModel::Logarithmic, 99));
    EXPECT_EQ(a, b);
    auto c = cacheKeyFor(
        inst(Algo::Sort, "otn", 32, DelayModel::Constant, 1));
    EXPECT_NE(a, c);
}

TEST(NetworkCacheTest, SecondAcquireIsAHitOnTheSameMachine)
{
    NetworkCache cache;
    auto spec = inst(Algo::Sort, "otn", 16);
    auto key = cacheKeyFor(spec);
    auto cost = costModelFor(spec);

    auto &first = cache.acquire(key, cost);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 1u);

    auto &second = cache.acquire(key, cost);
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

/** Set to make the next build of the "flaky" topology throw. */
bool g_failNextBuild = false;

/**
 * Register "flaky": a tree machine whose build throws once each time
 * g_failNextBuild is set, standing in for a bad_alloc on a large
 * machine.  Registered once per process, on first use.
 */
void
registerFlakyTopology()
{
    static const bool registered = [] {
        ot::topo::registry().add(
            {"flaky", "tree machine whose build can be made to throw",
             [](const ot::topo::MachineSpec &spec) {
                 if (std::exchange(g_failNextBuild, false))
                     throw std::runtime_error("flaky: build failed");
                 ot::topo::MachineSpec tree = spec;
                 tree.topo = "tree";
                 return ot::topo::registry().build(tree);
             }});
        return true;
    }();
    (void)registered;
}

TEST(NetworkCacheTest, ThrowingBuildLeavesNoSlotBehind)
{
    registerFlakyTopology();
    NetworkCache cache;
    auto spec = inst(Algo::Sort, "flaky", 16);
    auto key = cacheKeyFor(spec);
    auto cost = costModelFor(spec);

    g_failNextBuild = true;
    EXPECT_THROW(cache.acquire(key, cost), std::runtime_error);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.misses(), 1u);

    // The next lookup is a miss again, and it builds the machine.
    cache.acquire(key, cost);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(BatchEngineTest, LaneBuildThatThrowsIsAMissOnTheNextRun)
{
    registerFlakyTopology();
    WorkloadSpec spec;
    spec.instances = {inst(Algo::Sort, "otn", 16),
                      inst(Algo::Sort, "flaky", 16),
                      inst(Algo::Sort, "flaky", 16,
                           DelayModel::Logarithmic, 2)};
    for (unsigned threads : {1u, 4u}) {
        BatchEngine engine(threads);
        g_failNextBuild = true;
        EXPECT_THROW(engine.run(spec), std::runtime_error)
            << "threads=" << threads;
        // The otn shard ran; the flaky shard's empty slot is gone.
        EXPECT_EQ(engine.cache().size(), 1u) << "threads=" << threads;

        BatchReport report = engine.run(spec);
        EXPECT_TRUE(report.allVerified()) << "threads=" << threads;
        EXPECT_TRUE(report.instances[0].cacheHit) << "threads=" << threads;
        EXPECT_FALSE(report.instances[1].cacheHit) << "threads=" << threads;
        EXPECT_TRUE(report.instances[2].cacheHit) << "threads=" << threads;
        EXPECT_EQ(report.cacheMisses, 1u) << "threads=" << threads;
        EXPECT_EQ(engine.cache().size(), 2u) << "threads=" << threads;
    }
}

TEST(BatchEngineTest, ColdBatchOnFarmLanesMissesOncePerShard)
{
    std::vector<bool> seqHits;
    for (unsigned threads : {1u, 4u}) {
        BatchEngine engine(threads);
        BatchReport cold = engine.run(demoWorkload());
        EXPECT_TRUE(cold.allVerified()) << "threads=" << threads;
        EXPECT_EQ(cold.cacheMisses, cold.shards) << "threads=" << threads;
        EXPECT_EQ(engine.cache().size(), cold.shards)
            << "threads=" << threads;
        std::vector<bool> hits;
        for (const InstanceReport &r : cold.instances)
            hits.push_back(r.cacheHit);
        if (seqHits.empty())
            seqHits = hits;
        EXPECT_EQ(hits, seqHits) << "threads=" << threads;

        BatchReport warm = engine.run(demoWorkload());
        EXPECT_EQ(warm.cacheHits, warm.instances.size())
            << "threads=" << threads;
        EXPECT_EQ(warm.cacheMisses, 0u) << "threads=" << threads;
        for (const InstanceReport &r : warm.instances)
            EXPECT_TRUE(r.cacheHit) << "threads=" << threads << " #"
                                    << r.index;
    }
}

TEST(BatchEngineTest, DemoWorkloadVerifiesWithThreeHits)
{
    BatchEngine engine;
    auto report = engine.run(demoWorkload());

    ASSERT_EQ(report.instances.size(), 12u);
    EXPECT_TRUE(report.allVerified());
    // Three repeated shapes in the demo mix (see demoWorkload()).
    EXPECT_EQ(report.cacheHits, 3u);
    EXPECT_EQ(report.cacheMisses, 9u);
    EXPECT_EQ(report.shards, 9u);
    EXPECT_GT(report.makespan, 0u);
    EXPECT_GE(report.totalWork, report.makespan);
}

TEST(BatchEngineTest, MakespanIsMaxOverShardsOfSummedTimes)
{
    BatchEngine engine;
    auto report = engine.run(demoWorkload());

    std::map<std::size_t, ot::vlsi::ModelTime> shard_time;
    ot::vlsi::ModelTime total = 0;
    for (const auto &r : report.instances) {
        shard_time[r.shard] += r.time;
        total += r.time;
        EXPECT_GT(r.time, 0u) << "instance " << r.index;
        EXPECT_GT(r.area, 0u) << "instance " << r.index;
    }
    ASSERT_EQ(shard_time.size(), report.shards);

    ot::vlsi::ModelTime longest = 0;
    for (const auto &[shard, t] : shard_time)
        longest = std::max(longest, t);
    EXPECT_EQ(report.makespan, longest);
    EXPECT_EQ(report.totalWork, total);
}

TEST(BatchEngineTest, SingleInstanceBatchMakespanEqualsItsTime)
{
    WorkloadSpec spec;
    spec.instances.push_back(inst(Algo::Sort, "otn", 16));
    BatchEngine engine;
    auto report = engine.run(spec);
    ASSERT_EQ(report.instances.size(), 1u);
    EXPECT_EQ(report.makespan, report.instances[0].time);
    EXPECT_EQ(report.totalWork, report.instances[0].time);
    EXPECT_EQ(report.shards, 1u);
}

TEST(BatchEngineTest, CachePersistsAcrossRuns)
{
    BatchEngine engine;
    auto cold = engine.run(demoWorkload());
    auto warm = engine.run(demoWorkload());

    EXPECT_EQ(warm.cacheHits, 12u);
    EXPECT_EQ(warm.cacheMisses, 0u);
    EXPECT_EQ(engine.cache().size(), 9u);

    // Machine reuse must not leak state between runs: the warm pass
    // reproduces the cold pass exactly.
    EXPECT_EQ(warm.makespan, cold.makespan);
    for (std::size_t i = 0; i < cold.instances.size(); ++i) {
        EXPECT_EQ(warm.instances[i].time, cold.instances[i].time) << i;
        EXPECT_TRUE(warm.instances[i].verified) << i;
    }
}

/** A mixed batch with repeated shapes on four topologies: the two
 *  repeats reuse a cached machine within their shard, and the four
 *  distinct machines run on parallel farm shards. */
WorkloadSpec
farmBatch()
{
    WorkloadSpec spec;
    const std::pair<const char *, std::uint64_t> runs[] = {
        {"otn", 3}, {"otc", 5},  {"fattree", 7},
        {"tree", 11}, {"otn", 13}, {"otc", 17},
    };
    for (const auto &[net, seed] : runs)
        spec.instances.push_back(
            inst(Algo::Sort, net, 32, DelayModel::Logarithmic, seed));
    return spec;
}

TEST(BatchEngineTest, ReportsAreByteIdenticalAcrossHostThreads)
{
    std::vector<std::string> jsons;
    std::vector<std::string> texts;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        BatchEngine engine(threads);
        auto report = engine.run(demoWorkload());
        EXPECT_TRUE(report.allVerified()) << "threads=" << threads;
        EXPECT_EQ(report.cacheHits, 3u) << "threads=" << threads;
        EXPECT_EQ(report.shards, 9u) << "threads=" << threads;
        jsons.push_back(report.toJson());
        std::ostringstream os;
        report.writeText(os);
        texts.push_back(os.str());
    }
    for (std::size_t i = 1; i < jsons.size(); ++i) {
        EXPECT_EQ(jsons[0], jsons[i]) << "thread sweep " << i;
        EXPECT_EQ(texts[0], texts[i]) << "thread sweep " << i;
    }
}

// Farm shards on parallel lanes each own their cached machines; the
// repeated shapes are served from the cache within their shard.
TEST(SharedTwin, FarmShardsShareMachinesRaceFreeAndDeterministic)
{
    std::vector<std::string> jsons;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        BatchEngine engine(threads);
        BatchReport report = engine.run(farmBatch());
        EXPECT_TRUE(report.allVerified()) << "threads=" << threads;
        EXPECT_EQ(report.cacheHits, 2u) << "threads=" << threads;
        EXPECT_EQ(report.shards, 4u) << "threads=" << threads;
        jsons.push_back(report.toJson());
    }
    for (std::size_t i = 1; i < jsons.size(); ++i)
        EXPECT_EQ(jsons[0], jsons[i]) << "thread sweep " << i;
}

TEST(BatchEngineTest, TraceStreamsAreIdenticalAcrossHostThreads)
{
    auto trace_of = [](unsigned threads, std::size_t capacity) {
        auto tracer = std::make_unique<ot::trace::Tracer>(capacity);
        tracer->setEnabled(true);
        BatchEngine engine(threads);
        engine.setTracer(tracer.get());
        engine.run(demoWorkload());
        engine.setTracer(nullptr);
        return tracer;
    };
    auto expectPrefixOf = [](const ot::trace::Tracer &full,
                             const ot::trace::Tracer &got,
                             unsigned threads) {
        ASSERT_LE(got.events().size(), full.events().size());
        EXPECT_EQ(got.dropped(),
                  full.events().size() - got.events().size())
            << "threads=" << threads;
        for (std::size_t i = 0; i < got.events().size(); ++i)
            ASSERT_TRUE(ot::trace::eventsEqual(full.events()[i],
                                               got.events()[i]))
                << "threads=" << threads << " event " << i;
    };

    auto seq = trace_of(1, ot::trace::Tracer::kDefaultCapacity);
    EXPECT_GT(seq->events().size(), 2u);
    EXPECT_EQ(seq->dropped(), 0u);
    // A capacity that cuts the stream inside the farm's replay.
    const std::size_t cap = seq->events().size() / 2;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        auto par = trace_of(threads, ot::trace::Tracer::kDefaultCapacity);
        ASSERT_EQ(par->events().size(), seq->events().size())
            << "threads=" << threads;
        expectPrefixOf(*seq, *par, threads);

        auto capped = trace_of(threads, cap);
        ASSERT_EQ(capped->events().size(), cap) << "threads=" << threads;
        expectPrefixOf(*seq, *capped, threads);
    }
}

TEST(BatchEngineTest, StatsSurfaceCacheAndAlgoCounters)
{
    BatchEngine engine;
    engine.run(demoWorkload());
    EXPECT_EQ(engine.stats().counter("workload.instances").value(), 12u);
    EXPECT_EQ(engine.stats().counter("workload.cache.hit").value(), 3u);
    EXPECT_EQ(engine.stats().counter("workload.cache.miss").value(), 9u);
    EXPECT_EQ(engine.stats().counter("workload.algo.sort").value(), 4u);
    EXPECT_EQ(engine.stats().counter("workload.algo.mst").value(), 2u);
}

TEST(SpecTest, JsonRoundTrips)
{
    auto spec = demoWorkload();
    auto text = toJson(spec);
    WorkloadSpec parsed;
    std::string err;
    ASSERT_TRUE(parseWorkloadJson(text, parsed, err)) << err;
    EXPECT_EQ(parsed.instances, spec.instances);
}

TEST(SpecTest, ParseInstanceTokens)
{
    InstanceSpec out;
    std::string err;
    ASSERT_TRUE(parseInstance("boolmm:otc:64:const:seed=7", out, err))
        << err;
    EXPECT_EQ(out.algo, Algo::BoolMatMul);
    EXPECT_EQ(out.net, "otc");
    EXPECT_EQ(out.n, 64u);
    EXPECT_EQ(out.model, DelayModel::Constant);
    EXPECT_EQ(out.seed, 7u);
    EXPECT_FALSE(out.scaled);

    ASSERT_TRUE(parseInstance("sort:otn:32:log:scaled", out, err)) << err;
    EXPECT_TRUE(out.scaled);

    EXPECT_FALSE(parseInstance("sort:otn:32", out, err));
    EXPECT_FALSE(parseInstance("quicksort:otn:32:log", out, err));

    // Any registry topology is a valid net token now.
    ASSERT_TRUE(parseInstance("sort:mesh:32:log", out, err)) << err;
    EXPECT_EQ(out.net, "mesh");
    ASSERT_TRUE(parseInstance("sssp:fattree:16:log", out, err)) << err;
    EXPECT_EQ(out.algo, Algo::ShortestPaths);
    EXPECT_EQ(out.net, "fattree");
    EXPECT_FALSE(parseInstance("sort:hypercube:32:log", out, err));
    EXPECT_NE(err.find("unknown net 'hypercube'"), std::string::npos);
}

/**
 * A generic-path machine whose matmul or boolmm product is wrong in
 * exactly one cell when `corrupt` is set.  runInstance must catch the
 * one cell: verification is an exact comparison, not a sample.  (The
 * instances' net name is only a label: runInstance runs the machine
 * it is handed.)
 */
class OneCellOffMachine final : public ot::topo::Machine
{
  public:
    OneCellOffMachine(std::size_t n, std::size_t cell)
        : Machine({"one-cell-off", n, 0, DelayModel::Logarithmic,
                   ot::vlsi::WordFormat::forProblemSize(n).bits(), false}),
          _cell(cell)
    {
    }

    /** Corrupt cell (_cell, _cell) of the products that follow. */
    bool corrupt = false;
    /** boolmm only: corrupt the cell only where its true value is this. */
    std::uint64_t boolFrom = 0;
    /** Whether the last run returned a corrupted product. */
    bool corrupted = false;

    void reset() override { _now = 0, _steps = 0; }
    std::uint64_t area() const override { return 1; }
    std::uint64_t steps() const override { return _steps; }
    ot::vlsi::ModelTime now() const override { return _now; }
    void charge(ot::vlsi::ModelTime dt) override { _now += dt, ++_steps; }
    void setTracer(ot::trace::Tracer *) override {}
    ot::vlsi::ModelTime exchangeStepCost(std::size_t) const override
    {
        return 1;
    }
    ot::vlsi::ModelTime broadcastCost() const override { return 1; }
    ot::vlsi::ModelTime reduceCost() const override { return 1; }

    ot::topo::MatMulRun
    runMatMul(const ot::linalg::IntMatrix &a,
              const ot::linalg::IntMatrix &b) override
    {
        auto r = Machine::runMatMul(a, b);
        corrupted = corrupt;
        if (corrupted)
            r.product(_cell, _cell) += 1;
        return r;
    }

    ot::topo::MatMulRun
    runBoolMatMul(const ot::linalg::BoolMatrix &a,
                  const ot::linalg::BoolMatrix &b) override
    {
        auto r = Machine::runBoolMatMul(a, b);
        corrupted = corrupt && r.product(_cell, _cell) == boolFrom;
        if (corrupted)
            r.product(_cell, _cell) ^= 1;
        return r;
    }

  private:
    std::size_t _cell;
    ot::vlsi::ModelTime _now = 0;
    std::uint64_t _steps = 0;
};

/** Runs boolmm seeds from 1 until `m` corrupts its cell; returns the seed. */
std::uint64_t
runBoolMatMulUntilCorrupted(OneCellOffMachine &m, std::size_t n,
                            InstanceReport &out)
{
    for (std::uint64_t seed = 1; seed <= 200000; ++seed) {
        m.reset();
        runInstance(inst(Algo::BoolMatMul, "mot", n,
                         DelayModel::Logarithmic, seed),
                    m, out);
        if (m.corrupted)
            return seed;
    }
    return 0;
}

TEST(VerificationTest, OneWrongCellFailsMatMul)
{
    for (std::size_t n : {16, 64})
        for (std::size_t cell : {std::size_t{0}, n - 1}) {
            OneCellOffMachine m(n, cell);
            InstanceReport out;
            runInstance(inst(Algo::MatMul, "mot", n), m, out);
            EXPECT_TRUE(out.verified) << "n=" << n << " cell=" << cell;

            m.reset();
            m.corrupt = true;
            runInstance(inst(Algo::MatMul, "mot", n), m, out);
            ASSERT_TRUE(m.corrupted);
            EXPECT_FALSE(out.verified) << "n=" << n << " cell=" << cell;
        }
}

TEST(VerificationTest, OneFlippedCellFailsBoolMatMulBothWays)
{
    for (std::size_t n : {16, 64})
        for (std::size_t cell : {std::size_t{0}, n - 1})
            for (std::uint64_t from : {0u, 1u}) {
                OneCellOffMachine m(n, cell);
                m.corrupt = true;
                m.boolFrom = from;
                InstanceReport out;
                const std::uint64_t seed =
                    runBoolMatMulUntilCorrupted(m, n, out);
                ASSERT_NE(seed, 0u) << "no seed has cell " << cell
                                    << " = " << from << " at n=" << n;
                EXPECT_FALSE(out.verified)
                    << "n=" << n << " cell=" << cell << " flip " << from
                    << "->" << (from ^ 1) << " seed=" << seed;

                // The same instance on the honest machine verifies.
                m.corrupt = false;
                m.reset();
                runInstance(inst(Algo::BoolMatMul, "mot", n,
                                 DelayModel::Logarithmic, seed),
                            m, out);
                EXPECT_TRUE(out.verified)
                    << "n=" << n << " cell=" << cell << " seed=" << seed;
            }
}

TEST(SpecTest, DescribeInvalidFlagsBadSizes)
{
    WorkloadSpec spec;
    EXPECT_NE(describeInvalid(spec), "");
    spec.instances.push_back(inst(Algo::Sort, "otn", 16));
    EXPECT_EQ(describeInvalid(spec), "");
    spec.instances.push_back(inst(Algo::Sort, "otn", 24));
    EXPECT_NE(describeInvalid(spec), "");
}

} // namespace
