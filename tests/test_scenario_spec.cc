/**
 * @file
 * The scenario spec layer: the `.scn` grammar (accept and reject
 * corpus covering every diagnostic) and describeInvalid()'s semantic
 * rules.
 */

#include <gtest/gtest.h>

#include <string>

#include "scenario/spec.hh"

namespace {

using namespace ot::scenario;
using ot::workload::Algo;

ScenarioSpec
parsed(const std::string &text)
{
    ScenarioSpec spec;
    std::string err;
    EXPECT_TRUE(parseScenario(text, spec, err)) << err;
    return spec;
}

std::string
rejected(const std::string &text)
{
    ScenarioSpec spec;
    std::string err;
    EXPECT_FALSE(parseScenario(text, spec, err)) << "accepted: " << text;
    return err;
}

// ------------------------------------------------------- .scn accepts

TEST(ScnParseTest, FullScenarioWithCommentsAndBlanks)
{
    ScenarioSpec spec = parsed("# header comment\n"
                               "\n"
                               "scenario web # trailing comment\n"
                               "arrival bursty mean=40 duration=9000 "
                               "on=300 off=700 seed=5 max=100 "
                               "seeds=fixed\n"
                               "scheduler sjf workers=4\n"
                               "queue cap=32 shed=defer\n"
                               "client api weight=2 quota=6 slo=800 "
                               "slo_pct=99 mix=sort:otn:32:log\n"
                               "client bulk mix=matmul:otn:16:log,"
                               "sort:otn:64:log\n");
    EXPECT_EQ(spec.name, "web");
    EXPECT_EQ(spec.arrival.kind, ArrivalKind::Bursty);
    EXPECT_EQ(spec.arrival.mean, 40u);
    EXPECT_EQ(spec.arrival.duration, 9000u);
    EXPECT_EQ(spec.arrival.onMean, 300u);
    EXPECT_EQ(spec.arrival.offMean, 700u);
    EXPECT_EQ(spec.arrival.seed, 5u);
    EXPECT_EQ(spec.arrival.maxArrivals, 100u);
    EXPECT_FALSE(spec.arrival.varySeeds);
    EXPECT_EQ(spec.scheduler, SchedulerKind::Sjf);
    EXPECT_EQ(spec.workers, 4u);
    EXPECT_EQ(spec.queueCap, 32u);
    EXPECT_EQ(spec.shed, ShedPolicy::Defer);
    ASSERT_EQ(spec.clients.size(), 2u);
    EXPECT_EQ(spec.clients[0].name, "api");
    EXPECT_EQ(spec.clients[0].weight, 2u);
    EXPECT_EQ(spec.clients[0].quota, 6u);
    EXPECT_EQ(spec.clients[0].slo, 800u);
    EXPECT_EQ(spec.clients[0].sloPct, 99u);
    ASSERT_EQ(spec.clients[0].mix.size(), 1u);
    EXPECT_EQ(spec.clients[0].mix[0].algo, Algo::Sort);
    ASSERT_EQ(spec.clients[1].mix.size(), 2u);
    EXPECT_EQ(spec.clients[1].mix[0].algo, Algo::MatMul);
    EXPECT_EQ(describeInvalid(spec), "");
}

TEST(ScnParseTest, DiurnalOptionsAndDefaults)
{
    ScenarioSpec spec =
        parsed("scenario wave\n"
               "arrival diurnal mean=50 duration=5000 period=1000 "
               "amp=80\n"
               "client c mix=sort:otn:16:log\n");
    EXPECT_EQ(spec.arrival.kind, ArrivalKind::Diurnal);
    EXPECT_EQ(spec.arrival.period, 1000u);
    EXPECT_EQ(spec.arrival.ampPct, 80u);
    EXPECT_TRUE(spec.arrival.varySeeds);
    // Unstated directives keep their defaults.
    EXPECT_EQ(spec.scheduler, SchedulerKind::Fifo);
    EXPECT_EQ(spec.workers, 1u);
    EXPECT_EQ(spec.queueCap, 0u);
    EXPECT_EQ(spec.shed, ShedPolicy::Drop);
    EXPECT_EQ(spec.clients[0].weight, 1u);
    EXPECT_EQ(spec.clients[0].quota, 0u);
    EXPECT_EQ(spec.clients[0].slo, 0u);
    EXPECT_EQ(spec.clients[0].sloPct, 95u);

    // The same wave with every default overridden.
    spec = parsed("scenario web\n"
                  "arrival diurnal mean=50 duration=5000 period=1000 "
                  "amp=30 seeds=fixed\n"
                  "scheduler edf workers=3\n"
                  "queue cap=8 shed=defer\n"
                  "client api slo=700 slo_pct=50 "
                  "mix=sort:otn:32:log:seed=9\n");
    EXPECT_EQ(spec.arrival.kind, ArrivalKind::Diurnal);
    EXPECT_EQ(spec.arrival.mean, 50u);
    EXPECT_EQ(spec.arrival.duration, 5000u);
    EXPECT_EQ(spec.arrival.period, 1000u);
    EXPECT_EQ(spec.arrival.ampPct, 30u);
    EXPECT_FALSE(spec.arrival.varySeeds);
    EXPECT_EQ(spec.scheduler, SchedulerKind::Edf);
    EXPECT_EQ(spec.workers, 3u);
    EXPECT_EQ(spec.queueCap, 8u);
    EXPECT_EQ(spec.shed, ShedPolicy::Defer);
    ASSERT_EQ(spec.clients.size(), 1u);
    EXPECT_EQ(spec.clients[0].name, "api");
    EXPECT_EQ(spec.clients[0].slo, 700u);
    EXPECT_EQ(spec.clients[0].sloPct, 50u);
    ASSERT_EQ(spec.clients[0].mix.size(), 1u);
    EXPECT_EQ(spec.clients[0].mix[0].n, 32u);
    EXPECT_EQ(spec.clients[0].mix[0].seed, 9u);
    EXPECT_EQ(describeInvalid(spec), "");
}

// ------------------------------------------------------- .scn rejects

TEST(ScnParseTest, RejectsEveryScenarioDirectiveError)
{
    EXPECT_EQ(rejected("scenario a\nscenario b\n"),
              "line 2: duplicate scenario directive");
    EXPECT_EQ(rejected("scenario\n"), "line 1: scenario needs a name");
    EXPECT_EQ(rejected("scenario bad!name\n"),
              "line 1: scenario name must be [A-Za-z0-9_-]+");
    EXPECT_EQ(rejected("frobnicate x\n"),
              "line 1: unknown directive 'frobnicate' "
              "(scenario|arrival|scheduler|queue|client)");
}

TEST(ScnParseTest, RejectsEveryArrivalDirectiveError)
{
    EXPECT_EQ(rejected("arrival\n"),
              "line 1: arrival needs a process (poisson|bursty|diurnal)");
    EXPECT_EQ(rejected("arrival uniform\n"),
              "line 1: unknown arrival process 'uniform' "
              "(poisson|bursty|diurnal)");
    EXPECT_EQ(rejected("arrival poisson mean\n"),
              "line 1: expected key=value, got 'mean'");
    EXPECT_EQ(rejected("arrival poisson mean=abc\n"),
              "line 1: bad integer in 'mean=abc'");
    EXPECT_EQ(rejected("arrival poisson rate=3\n"),
              "line 1: unknown arrival option 'rate' "
              "(mean|duration|max|seed|on|off|period|amp|seeds)");
    EXPECT_EQ(rejected("arrival poisson seeds=maybe\n"),
              "line 1: seeds must be vary or fixed");
    EXPECT_EQ(rejected("arrival diurnal amp=100\n"),
              "line 1: amp must be an integer percent in [0, 99]");
    EXPECT_EQ(rejected("arrival poisson mean=1\narrival poisson "
                       "mean=2\n"),
              "line 2: duplicate arrival directive");
}

TEST(ScnParseTest, RejectsEverySchedulerDirectiveError)
{
    EXPECT_EQ(rejected("scheduler\n"),
              "line 1: scheduler needs a policy (fifo|sjf|fair|edf)");
    EXPECT_EQ(rejected("scheduler lifo\n"),
              "line 1: unknown scheduler 'lifo' (fifo|sjf|fair|edf)");
    EXPECT_EQ(rejected("scheduler fifo cap=2\n"),
              "line 1: unknown scheduler option 'cap' (workers)");
    EXPECT_EQ(rejected("scheduler fifo workers\n"),
              "line 1: expected key=value, got 'workers'");
    EXPECT_EQ(rejected("scheduler fifo\nscheduler sjf\n"),
              "line 2: duplicate scheduler directive");
}

TEST(ScnParseTest, RejectsEveryQueueDirectiveError)
{
    EXPECT_EQ(rejected("queue depth=2\n"),
              "line 1: unknown queue option 'depth' (cap|shed)");
    EXPECT_EQ(rejected("queue shed=bounce\n"),
              "line 1: shed must be drop or defer");
    EXPECT_EQ(rejected("queue cap\n"),
              "line 1: expected key=value, got 'cap'");
    EXPECT_EQ(rejected("queue cap=x\n"),
              "line 1: bad integer in 'cap=x'");
    EXPECT_EQ(rejected("queue cap=1\nqueue cap=2\n"),
              "line 2: duplicate queue directive");
}

TEST(ScnParseTest, RejectsEveryClientDirectiveError)
{
    EXPECT_EQ(rejected("client\n"), "line 1: client needs a name");
    EXPECT_EQ(rejected("client bad!\n"),
              "line 1: client name must be [A-Za-z0-9_-]+");
    EXPECT_EQ(rejected("client a mix=sort:otn:16:log\n"
                       "client a mix=sort:otn:16:log\n"),
              "line 2: duplicate client 'a'");
    EXPECT_EQ(rejected("client a burst=1\n"),
              "line 1: unknown client option 'burst' "
              "(weight|quota|slo|slo_pct|mix)");
    EXPECT_EQ(rejected("client a mix=bogus\n"),
              "line 1: bad mix instance 'bogus': expected "
              "algo:net:n:model[:scaled][:seed=K], got 'bogus'");
    EXPECT_EQ(rejected("client a mix=sort:xpu:16:log\n"),
              "line 1: bad mix instance 'sort:xpu:16:log': "
              "unknown net 'xpu' "
              "(ccc|d2d-mot|fattree|hex|mesh|mot|otc|otc-emu|otn|psn|tree)");
}

// ---------------------------------------------------- describeInvalid

ScenarioSpec
minimalValid()
{
    ScenarioSpec spec = demoScenario();
    EXPECT_EQ(describeInvalid(spec), "");
    return spec;
}

TEST(ScenarioValidateTest, CatchesEverySemanticRule)
{
    ScenarioSpec spec = minimalValid();
    spec.name.clear();
    EXPECT_EQ(describeInvalid(spec), "scenario: missing name");

    spec = minimalValid();
    spec.arrival.mean = 0;
    EXPECT_EQ(describeInvalid(spec), "arrival: mean must be >= 1");

    spec = minimalValid();
    spec.arrival.duration = 0;
    EXPECT_EQ(describeInvalid(spec), "arrival: duration must be >= 1");

    spec = minimalValid();
    spec.arrival.mean = 1;
    spec.arrival.duration = 2000000;
    spec.arrival.maxArrivals = 0;
    EXPECT_EQ(describeInvalid(spec),
              "arrival: duration/mean implies more than 1M arrivals; "
              "set max=");

    spec = minimalValid();
    spec.arrival.kind = ArrivalKind::Bursty;
    EXPECT_EQ(describeInvalid(spec),
              "bursty arrival: on and off dwell means must be >= 1");

    spec = minimalValid();
    spec.arrival.kind = ArrivalKind::Diurnal;
    EXPECT_EQ(describeInvalid(spec),
              "diurnal arrival: period must be >= 1");

    spec = minimalValid();
    spec.workers = 0;
    EXPECT_EQ(describeInvalid(spec),
              "scheduler: workers must be >= 1");

    spec = minimalValid();
    spec.clients.clear();
    EXPECT_EQ(describeInvalid(spec), "scenario: no clients");

    spec = minimalValid();
    spec.clients[0].weight = 0;
    EXPECT_EQ(describeInvalid(spec),
              "client 'interactive': weight must be >= 1");

    spec = minimalValid();
    spec.clients[0].sloPct = 97;
    EXPECT_EQ(describeInvalid(spec),
              "client 'interactive': slo_pct must be 50, 95 or 99");

    spec = minimalValid();
    spec.clients[1].mix.clear();
    EXPECT_EQ(describeInvalid(spec), "client 'batch': empty mix");

    spec = minimalValid();
    spec.clients[0].mix[1].n = 1;
    EXPECT_EQ(describeInvalid(spec),
              "client 'interactive': mix instance 1: size out of "
              "range [2, 16384]");

    spec = minimalValid();
    spec.clients[0].mix[0].n = 24;
    EXPECT_EQ(describeInvalid(spec),
              "client 'interactive': mix instance 0: size 24 is not "
              "a power of two");
}

TEST(ScenarioStringsTest, EnumNamesRoundTrip)
{
    SchedulerKind kind = SchedulerKind::Fifo;
    for (const char *name : {"fifo", "sjf", "fair", "edf"}) {
        EXPECT_TRUE(schedulerFromString(name, kind));
        EXPECT_EQ(toString(kind), name);
    }
    EXPECT_FALSE(schedulerFromString("lifo", kind));
}

} // namespace
