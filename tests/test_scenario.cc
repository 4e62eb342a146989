/**
 * @file
 * The scenario engine: golden sim::Rng sequences, arrival
 * process shape (Poisson rate, bursty dwells, diurnal modulation),
 * the scheduling policies' ranking functions, admission control
 * (quota, queue cap, drop vs defer), latency-SLO evaluation, and the
 * determinism contract — reports byte-identical at every host-thread
 * count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>
#include <vector>

#include "scenario/arrivals.hh"
#include "scenario/engine.hh"
#include "scenario/scheduler.hh"
#include "scenario/spec.hh"
#include "trace/tracer.hh"

namespace {

using namespace ot::scenario;
using ot::vlsi::DelayModel;
using ot::vlsi::ModelTime;
using ot::workload::Algo;
using ot::workload::InstanceSpec;

// ---------------------------------------------------------------- PRNG

using ot::sim::Rng;

TEST(PrngTest, GoldenSplitmix64FromStateZero)
{
    Rng rng(0);
    EXPECT_EQ(rng.next(), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(rng.next(), 0x6e789e6aa1b965f4ULL);
    EXPECT_EQ(rng.next(), 0x06c45d188009454fULL);
    EXPECT_EQ(rng.next(), 0xf88bb8a8724c81ecULL);
}

TEST(PrngTest, GoldenSplitmix64FromState42)
{
    Rng rng(42);
    EXPECT_EQ(rng.next(), 0xbdd732262feb6e95ULL);
    EXPECT_EQ(rng.next(), 0x28efe333b266f103ULL);
    EXPECT_EQ(rng.next(), 0x47526757130f9f52ULL);
    EXPECT_EQ(rng.next(), 0x581ce1ff0e4ae394ULL);
}

TEST(PrngTest, GoldenStreamSequences)
{
    Rng s10(1, 0);
    EXPECT_EQ(s10.next(), 0xe7d72f820b2d2d96ULL);
    EXPECT_EQ(s10.next(), 0x4a38e3bce4be6354ULL);
    EXPECT_EQ(s10.next(), 0x6190ba8f346ef84fULL);

    Rng s11(1, 1);
    EXPECT_EQ(s11.next(), 0x14839fb735d0dbc4ULL);
    EXPECT_EQ(s11.next(), 0x555e3e56f98ea4e3ULL);
    EXPECT_EQ(s11.next(), 0x9880ada3411ab5e7ULL);

    Rng s72(7, 2);
    EXPECT_EQ(s72.next(), 0xba55cac2a2764a3bULL);
    EXPECT_EQ(s72.next(), 0xb7239dcd92be9bb8ULL);
    EXPECT_EQ(s72.next(), 0xe013eedda1ac72f2ULL);
}

TEST(PrngTest, StreamsAreNotShiftedCopies)
{
    // The stream multiplier is deliberately not the SplitMix64
    // increment: stream 1 must not appear anywhere early in stream 0.
    Rng s0(1, 0);
    std::vector<std::uint64_t> head;
    for (int i = 0; i < 64; ++i)
        head.push_back(s0.next());
    Rng s1(1, 1);
    std::uint64_t first = s1.next();
    EXPECT_EQ(std::count(head.begin(), head.end(), first), 0);
}

TEST(PrngTest, UniformStaysInBounds)
{
    Rng rng(3, 0);
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = rng.uniform(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
    }
    EXPECT_EQ(rng.uniform(7, 7), 7u);
}

TEST(PrngTest, UnitOpenNeverZeroNeverAboveOne)
{
    Rng rng(9, 0);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.unitOpen();
        EXPECT_GT(u, 0.0);
        EXPECT_LE(u, 1.0);
    }
}

TEST(PrngTest, ExponentialMomentsMatchTheMean)
{
    Rng rng(1234, 0);
    const int n = 20000;
    const double mean = 100.0;
    double sum = 0.0, sumSq = 0.0;
    for (int i = 0; i < n; ++i) {
        double x = expReal(rng, mean);
        sum += x;
        sumSq += x * x;
    }
    double m = sum / n;
    double var = sumSq / n - m * m;
    // Exponential: mean = 100, variance = mean^2 = 10000.  The
    // sampling error at n = 20000 is well under these bands.
    EXPECT_NEAR(m, mean, 5.0);
    EXPECT_NEAR(var, mean * mean, 1500.0);
}

TEST(PrngTest, ExponentialTicksAreFlooredAtOne)
{
    Rng rng(5, 0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(exponentialGap(rng, 1), 1u);
}

// ------------------------------------------------------------ arrivals

ScenarioSpec
oneClientSpec(ArrivalKind kind, ModelTime mean, ModelTime duration)
{
    ScenarioSpec spec;
    spec.name = "t";
    spec.arrival.kind = kind;
    spec.arrival.mean = mean;
    spec.arrival.duration = duration;
    spec.arrival.seed = 7;
    ClientConfig c;
    c.name = "only";
    c.mix.push_back(
        {Algo::Sort, "otn", 16, DelayModel::Logarithmic, false, 1});
    spec.clients.push_back(c);
    return spec;
}

TEST(ArrivalsTest, DeterministicAndStrictlyIncreasing)
{
    ScenarioSpec spec = demoScenario();
    std::vector<Arrival> a = generateArrivals(spec);
    std::vector<Arrival> b = generateArrivals(spec);
    EXPECT_EQ(a, b);
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_GT(a[i].at, a[i - 1].at);
    for (const Arrival &arr : a)
        EXPECT_LE(arr.at, spec.arrival.duration);
}

TEST(ArrivalsTest, PoissonCountTracksTheRate)
{
    ScenarioSpec spec =
        oneClientSpec(ArrivalKind::Poisson, 100, 100000);
    std::vector<Arrival> arr = generateArrivals(spec);
    // ~1000 expected; allow generous sampling slack.
    EXPECT_GE(arr.size(), 850u);
    EXPECT_LE(arr.size(), 1150u);
}

TEST(ArrivalsTest, MaxArrivalsCapsTheStream)
{
    ScenarioSpec spec =
        oneClientSpec(ArrivalKind::Poisson, 10, 1000000);
    spec.arrival.maxArrivals = 10;
    EXPECT_EQ(generateArrivals(spec).size(), 10u);
}

TEST(ArrivalsTest, ClientWeightsShapeTheMix)
{
    ScenarioSpec spec = oneClientSpec(ArrivalKind::Poisson, 10, 100000);
    spec.clients[0].weight = 3;
    ClientConfig other;
    other.name = "other";
    other.weight = 1;
    other.mix = spec.clients[0].mix;
    spec.clients.push_back(other);

    std::vector<Arrival> arr = generateArrivals(spec);
    ASSERT_GT(arr.size(), 1000u);
    std::size_t first = 0;
    for (const Arrival &a : arr)
        first += a.client == 0;
    double frac =
        static_cast<double>(first) / static_cast<double>(arr.size());
    EXPECT_GT(frac, 0.70);
    EXPECT_LT(frac, 0.80);
}

TEST(ArrivalsTest, BurstyGoesQuietInOffDwells)
{
    ScenarioSpec poisson =
        oneClientSpec(ArrivalKind::Poisson, 20, 60000);
    ScenarioSpec bursty = oneClientSpec(ArrivalKind::Bursty, 20, 60000);
    bursty.arrival.onMean = 500;
    bursty.arrival.offMean = 5000;

    std::size_t pn = generateArrivals(poisson).size();
    std::vector<Arrival> ba = generateArrivals(bursty);
    // OFF dwells silence most of the horizon, so the bursty stream
    // is much thinner than Poisson at the same ON rate...
    EXPECT_LT(ba.size(), pn / 2);
    // ...and the silences show up as gaps far beyond the ON mean.
    ModelTime maxGap = 0;
    for (std::size_t i = 1; i < ba.size(); ++i)
        maxGap = std::max(maxGap, ba[i].at - ba[i - 1].at);
    EXPECT_GT(maxGap, 1000u);
}

TEST(ArrivalsTest, DiurnalCrestOutpacesTrough)
{
    ScenarioSpec spec =
        oneClientSpec(ArrivalKind::Diurnal, 50, 200000);
    spec.arrival.period = 10000;
    spec.arrival.ampPct = 90;

    std::size_t crest = 0, trough = 0;
    for (const Arrival &a : generateArrivals(spec)) {
        ModelTime phase = a.at % 10000;
        // The triangle wave peaks at half period and bottoms at 0.
        if (phase >= 4000 && phase < 6000)
            ++crest;
        else if (phase < 1000 || phase >= 9000)
            ++trough;
    }
    EXPECT_GT(crest, 2 * trough);
}

TEST(ArrivalsTest, SeedPolicyVaryVersusFixed)
{
    ScenarioSpec spec = oneClientSpec(ArrivalKind::Poisson, 50, 20000);
    spec.arrival.varySeeds = true;
    std::vector<Arrival> vary = generateArrivals(spec);
    ASSERT_GT(vary.size(), 10u);
    std::set<std::uint64_t> seeds;
    for (const Arrival &a : vary)
        seeds.insert(a.inst.seed);
    EXPECT_GT(seeds.size(), vary.size() / 2);

    spec.arrival.varySeeds = false;
    for (const Arrival &a : generateArrivals(spec))
        EXPECT_EQ(a.inst.seed, 1u);
}

TEST(ArrivalsTest, MixIndexNamesTheDrawnEntry)
{
    // Two clients with multi-entry mixes, so a wrong index or a
    // client/mix mix-up shows.
    ScenarioSpec spec = demoScenario();
    spec.clients[1].mix.push_back(
        {Algo::MatMul, "otc", 16, DelayModel::Logarithmic, false, 1});
    for (bool vary : {false, true}) {
        spec.arrival.varySeeds = vary;
        std::vector<Arrival> arr = generateArrivals(spec);
        ASSERT_FALSE(arr.empty());
        std::set<std::pair<unsigned, unsigned>> drawn;
        for (const Arrival &a : arr) {
            ASSERT_LT(a.client, spec.clients.size());
            const ClientConfig &c = spec.clients[a.client];
            ASSERT_LT(a.mix, c.mix.size());
            InstanceSpec expect = c.mix[a.mix];
            if (vary)
                expect.seed = a.inst.seed;
            EXPECT_EQ(a.inst, expect);
            drawn.insert({a.client, a.mix});
        }
        // Every entry of the 2 + 3 was drawn at least once.
        EXPECT_EQ(drawn.size(), 5u);
    }
}

// ---------------------------------------------------------- scheduler

std::vector<QueueJob>
threeJobs()
{
    // Deliberately out of arrival order in the vector: the policies
    // rank by field, not position.
    return {
        {2, 30, 0, 500, 1030},
        {0, 10, 1, 300, 9000},
        {1, 20, 0, 300, 5020},
    };
}

TEST(SchedulerTest, FifoPicksTheOldestArrival)
{
    std::vector<ModelTime> served(2, 0);
    EXPECT_EQ(pickNext(SchedulerKind::Fifo, threeJobs(), served), 1u);
}

TEST(SchedulerTest, SjfPicksTheSmallestEstimate)
{
    std::vector<ModelTime> served(2, 0);
    // Jobs 0 and 1 tie on estimate 300; the lower job index wins.
    EXPECT_EQ(pickNext(SchedulerKind::Sjf, threeJobs(), served), 1u);
}

TEST(SchedulerTest, FairSharePicksTheStarvedClient)
{
    std::vector<ModelTime> served = {10000, 50};
    // Client 1 (job 0 at vector index 1) has been served least.
    EXPECT_EQ(pickNext(SchedulerKind::FairShare, threeJobs(), served),
              1u);
    served = {50, 10000};
    // Now client 0; its two jobs tie, lower job index (1) wins.
    EXPECT_EQ(pickNext(SchedulerKind::FairShare, threeJobs(), served),
              2u);
}

TEST(SchedulerTest, EdfPicksTheEarliestDeadline)
{
    std::vector<ModelTime> served(2, 0);
    EXPECT_EQ(pickNext(SchedulerKind::Edf, threeJobs(), served), 0u);
}

// --------------------------------------------------------- percentile

TEST(PercentileTest, NearestRankByHand)
{
    std::vector<ModelTime> v = {10, 20, 30, 40, 50,
                                60, 70, 80, 90, 100};
    EXPECT_EQ(percentileNearestRank(v, 50), 50u);
    EXPECT_EQ(percentileNearestRank(v, 95), 100u);
    EXPECT_EQ(percentileNearestRank(v, 99), 100u);
    EXPECT_EQ(percentileNearestRank(v, 1), 10u);
    std::vector<ModelTime> one = {7};
    EXPECT_EQ(percentileNearestRank(one, 50), 7u);
    EXPECT_EQ(percentileNearestRank({}, 95), 0u);
}

TEST(PercentileTest, SelectionMatchesSortedNearestRank)
{
    Rng rng(2024, 0);
    for (std::size_t n : {0, 1, 2, 3, 99, 100, 101, 6000}) {
        // Wide random values, then a duplicate-heavy draw from {0..3}.
        for (std::uint64_t hi : {std::uint64_t{1} << 40, std::uint64_t{3}}) {
            std::vector<ModelTime> samples(n);
            for (ModelTime &v : samples)
                v = rng.uniform(0, hi);
            std::vector<ModelTime> sorted = samples;
            std::sort(sorted.begin(), sorted.end());

            SojournStats s = summarize(samples);
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " hi=" + std::to_string(hi));
            EXPECT_EQ(s.count, n);
            EXPECT_EQ(s.p50, percentileNearestRank(sorted, 50));
            EXPECT_EQ(s.p95, percentileNearestRank(sorted, 95));
            EXPECT_EQ(s.p99, percentileNearestRank(sorted, 99));
            ModelTime sum = 0;
            for (ModelTime v : sorted)
                sum += v;
            EXPECT_EQ(s.mean, n == 0 ? 0 : sum / n);
            EXPECT_EQ(s.max, n == 0 ? 0 : sorted.back());
            for (unsigned pct : {50u, 95u, 99u})
                EXPECT_EQ(summarizedPercentile(s, pct),
                          percentileNearestRank(sorted, pct));
            // Selection only reorders the samples.
            std::sort(samples.begin(), samples.end());
            EXPECT_EQ(samples, sorted);
        }
    }
}

// ------------------------------------------------------------- engine

TEST(EngineTest, ReportsByteIdenticalAcrossHostThreads)
{
    ScenarioSpec spec = demoScenario();
    ScenarioEngine seq(1);
    ScenarioEngine par(8);
    ScenarioReport a = seq.run(spec);
    ScenarioReport b = par.run(spec);
    EXPECT_TRUE(a.verified);
    EXPECT_TRUE(b.verified);
    EXPECT_EQ(a.toJson(), b.toJson());

    std::ostringstream ta, tb;
    a.writeText(ta);
    b.writeText(tb);
    EXPECT_EQ(ta.str(), tb.str());
}

TEST(EngineTest, RepeatRunsAreIdentical)
{
    ScenarioSpec spec = demoScenario();
    ScenarioEngine engine(2);
    ScenarioReport a = engine.run(spec, SchedulerKind::Sjf);
    ScenarioReport b = engine.run(spec, SchedulerKind::Sjf);
    EXPECT_EQ(a.toJson(), b.toJson());
}

const SchedulerKind kAllPolicies[] = {SchedulerKind::Fifo, SchedulerKind::Sjf,
                                      SchedulerKind::FairShare,
                                      SchedulerKind::Edf};

void
expectSameReport(const ScenarioReport &a, const ScenarioReport &b)
{
    EXPECT_EQ(a.toJson(), b.toJson());
    std::ostringstream ta, tb;
    a.writeText(ta);
    b.writeText(tb);
    EXPECT_EQ(ta.str(), tb.str());
    EXPECT_EQ(a.jobs, b.jobs);
}

/** Every policy run on `shared` equals the same run on a fresh
 *  engine. */
void
expectMatchesFreshEngines(ScenarioEngine &shared, const ScenarioSpec &spec)
{
    ASSERT_EQ(describeInvalid(spec), "");
    for (SchedulerKind k : kAllPolicies) {
        SCOPED_TRACE(toString(k));
        ScenarioEngine fresh(1);
        expectSameReport(shared.run(spec, k), fresh.run(spec, k));
    }
}

TEST(EngineTest, ComparisonOnOneEngineMatchesFreshEngines)
{
    ScenarioSpec fixedDefer = demoScenario();
    fixedDefer.arrival.varySeeds = false;
    fixedDefer.queueCap = 4;
    fixedDefer.shed = ShedPolicy::Defer;
    fixedDefer.clients[1].quota = 2;

    ScenarioSpec bursty = demoScenario();
    bursty.arrival.kind = ArrivalKind::Bursty;
    bursty.arrival.onMean = 1500;
    bursty.arrival.offMean = 3000;

    for (const ScenarioSpec &spec : {demoScenario(), fixedDefer, bursty}) {
        ScenarioEngine shared(1);
        expectMatchesFreshEngines(shared, spec);
    }
    // fixedDefer must actually defer, or it covers nothing new.
    ScenarioEngine probe(1);
    EXPECT_GT(probe.run(fixedDefer).deferred, 0u);

    // The engine keeps the last stream: a change to any part of the
    // spec that shapes the stream must not replay a stale one.
    ScenarioEngine engine(1);
    ScenarioSpec spec = demoScenario();
    expectMatchesFreshEngines(engine, spec);
    spec.arrival.seed = 43;
    expectMatchesFreshEngines(engine, spec);
    spec.clients[1].mix[1] = {Algo::MatMul, "otc", 16,
                              DelayModel::Logarithmic, false, 1};
    expectMatchesFreshEngines(engine, spec);
    spec.clients[0].weight = 1;
    expectMatchesFreshEngines(engine, spec);
}

TEST(EngineTest, AccountingInvariantsHold)
{
    ScenarioSpec spec = demoScenario();
    ScenarioEngine engine(2);
    ScenarioReport rep = engine.run(spec);

    EXPECT_EQ(rep.arrivals, rep.completed + rep.droppedQueue +
                                rep.droppedQuota);
    EXPECT_EQ(rep.sojourn.count, rep.completed);
    EXPECT_LE(rep.utilizationPermille, 1000u);

    ModelTime maxComplete = 0, service = 0;
    for (const JobOutcome &job : rep.jobs) {
        if (!job.completed)
            continue;
        maxComplete = std::max(maxComplete, job.complete);
        service += job.service;
        EXPECT_GE(job.start, job.arrive);
        EXPECT_EQ(job.complete, job.start + job.service);
    }
    EXPECT_EQ(rep.makespan, maxComplete);
    EXPECT_EQ(rep.totalService, service);

    std::size_t clientArrivals = 0;
    for (const ClientReport &c : rep.clients)
        clientArrivals += c.arrivals;
    EXPECT_EQ(clientArrivals, rep.arrivals);
}

// The acceptance stream (examples/demo.scn): the long-job class is a
// sliver of the traffic, so shortest-job-first pulls the overall p95
// below FIFO's, not just the median.
const char *kMixedStream = R"(
scenario demo
arrival poisson mean=130 duration=42000 seed=11
scheduler fifo workers=2
queue cap=64 shed=drop
client interactive weight=19 slo=4500 slo_pct=95 mix=sort:otn:16:log,sort:otn:32:log
client batch weight=1 quota=3 mix=sort:otn:64:log,matmul:otn:16:log,matmul:otc:16:log
)";

TEST(EngineTest, SjfBeatsFifoOnTheMixedStream)
{
    ScenarioSpec spec;
    std::string err;
    ASSERT_TRUE(parseScenario(kMixedStream, spec, err)) << err;
    ASSERT_EQ(describeInvalid(spec), "");

    ScenarioEngine engine(2);
    ScenarioReport fifo = engine.run(spec, SchedulerKind::Fifo);
    ScenarioReport sjf = engine.run(spec, SchedulerKind::Sjf);

    EXPECT_GE(fifo.arrivals, 200u);
    EXPECT_EQ(fifo.arrivals, sjf.arrivals);
    EXPECT_TRUE(fifo.verified);
    EXPECT_TRUE(sjf.verified);
    EXPECT_LT(sjf.sojourn.p95, fifo.sojourn.p95);
    EXPECT_LT(sjf.sojourn.p50, fifo.sojourn.p50);
}

ScenarioSpec
floodSpec()
{
    // One slow worker under an arrival every ~2 ticks: admission
    // control, not service, decides most jobs' fate.
    ScenarioSpec spec = oneClientSpec(ArrivalKind::Poisson, 2, 2000);
    spec.workers = 1;
    return spec;
}

TEST(EngineTest, QuotaShedsOutstandingJobs)
{
    ScenarioSpec spec = floodSpec();
    spec.clients[0].quota = 2;
    ScenarioEngine engine(1);
    ScenarioReport rep = engine.run(spec);
    EXPECT_GT(rep.droppedQuota, 0u);
    EXPECT_EQ(rep.arrivals, rep.completed + rep.droppedQueue +
                                rep.droppedQuota);
    ASSERT_EQ(rep.clients.size(), 1u);
    EXPECT_EQ(rep.clients[0].droppedQuota, rep.droppedQuota);
}

TEST(EngineTest, FullQueueDropsOrDefers)
{
    ScenarioSpec drop = floodSpec();
    drop.queueCap = 2;
    drop.shed = ShedPolicy::Drop;
    ScenarioEngine engine(1);
    ScenarioReport dr = engine.run(drop);
    EXPECT_GT(dr.droppedQueue, 0u);
    EXPECT_LT(dr.completed, dr.arrivals);

    ScenarioSpec defer = drop;
    defer.shed = ShedPolicy::Defer;
    ScenarioReport df = engine.run(defer);
    EXPECT_EQ(df.droppedQueue, 0u);
    EXPECT_GT(df.deferred, 0u);
    // Deferred jobs are parked, not lost: every arrival completes
    // once the backlog drains.
    EXPECT_EQ(df.completed, df.arrivals);
}

TEST(EngineTest, SloTargetsAreEvaluatedPerClient)
{
    ScenarioSpec spec = demoScenario();
    spec.clients[0].slo = 1; // impossible at any load
    ScenarioEngine engine(1);
    ScenarioReport rep = engine.run(spec);
    ASSERT_EQ(rep.clients.size(), 2u);
    EXPECT_FALSE(rep.clients[0].sloPass);
    EXPECT_GT(rep.clients[0].sloObserved, 1u);
    // Client 1 has no target: vacuously passing.
    EXPECT_EQ(rep.clients[1].sloTarget, 0u);
    EXPECT_TRUE(rep.clients[1].sloPass);
    EXPECT_FALSE(rep.sloPass);
}

TEST(EngineTest, TracerRecordsOneSpanPerCompletedJob)
{
    ot::trace::Tracer tracer;
    tracer.setEnabled(true);
    ScenarioEngine engine(1);
    engine.setTracer(&tracer);
    ScenarioReport rep = engine.run(demoScenario());

    std::size_t spans = 0;
    for (const ot::trace::Event &e : tracer.events())
        if (e.kind == ot::trace::EventKind::Span &&
            std::strcmp(e.cat, "scenario") == 0)
            ++spans;
    EXPECT_EQ(spans, rep.completed);
}

} // namespace
