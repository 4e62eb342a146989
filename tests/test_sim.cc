/**
 * @file
 * Tests for the simulation substrate: time accountant (phases),
 * statistics package and the RNG distributions.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/time_accountant.hh"

namespace {

using namespace ot::sim;

TEST(TimeAccountant, AdvanceAccumulates)
{
    TimeAccountant acct;
    EXPECT_EQ(acct.now(), 0u);
    acct.advance(10);
    acct.advance(5);
    EXPECT_EQ(acct.now(), 15u);
    EXPECT_EQ(acct.steps(), 2u);
}

// Phases open only through ScopedPhase: the raw push/pop is private,
// so no caller can leave a phase open on some path.  (The checks sit
// in concepts because GCC rejects an inaccessible member named in a
// requires-expression outside a template instead of yielding false.)
template <class T>
concept OpensPhases = requires(T &a) { a.beginPhase(""); };
template <class T>
concept ClosesPhases = requires(T &a) { a.endPhase(); };
static_assert(!OpensPhases<TimeAccountant>);
static_assert(!ClosesPhases<TimeAccountant>);

TEST(TimeAccountant, ResetClearsEverything)
{
    TimeAccountant acct;
    {
        ScopedPhase p(acct, "x");
        acct.advance(3);
    }
    acct.reset();
    EXPECT_EQ(acct.now(), 0u);
    EXPECT_EQ(acct.steps(), 0u);
    EXPECT_TRUE(acct.phaseTimes().empty());
}

TEST(TimeAccountant, PhasesAttributeTime)
{
    TimeAccountant acct;
    acct.advance(1); // outside any phase
    {
        ScopedPhase p(acct, "load");
        acct.advance(10);
    }
    {
        ScopedPhase p(acct, "compute");
        acct.advance(20);
        acct.advance(2);
    }
    EXPECT_EQ(acct.phaseTimes().at("load"), 10u);
    EXPECT_EQ(acct.phaseTimes().at("compute"), 22u);
    EXPECT_EQ(acct.now(), 33u);
}

TEST(TimeAccountant, NestedPhasesChargeInnermost)
{
    TimeAccountant acct;
    {
        ScopedPhase outer(acct, "outer");
        acct.advance(5);
        {
            ScopedPhase inner(acct, "inner");
            acct.advance(7);
        }
        acct.advance(3);
    }
    EXPECT_EQ(acct.phaseTimes().at("outer"), 8u);
    EXPECT_EQ(acct.phaseTimes().at("inner"), 7u);
}

TEST(TimeAccountant, ScopedPhaseIsExceptionSafeRaii)
{
    TimeAccountant acct;
    {
        ScopedPhase p(acct, "scoped");
        acct.advance(4);
    }
    acct.advance(6);
    EXPECT_EQ(acct.phaseTimes().at("scoped"), 4u);
}

TEST(TimeAccountant, PhaseUnderflowIsCaught)
{
    // This repo keeps assertions on in every build type.  The one
    // underflow a ScopedPhase can still reach is a reset() while it is
    // alive: its destructor then pops an empty stack and dies with a
    // diagnostic rather than silently corrupting attribution.
    TimeAccountant acct;
    EXPECT_DEATH(
        {
            ScopedPhase p(acct, "p");
            acct.reset();
        },
        "endPhase without matching beginPhase");

    // Balanced usage reports a clean bill of health.
    {
        ScopedPhase p(acct, "p");
        EXPECT_EQ(acct.phaseDepth(), 1u);
    }
    EXPECT_EQ(acct.phaseDepth(), 0u);
    EXPECT_EQ(acct.phaseUnderflows(), 0u);
}

TEST(Stats, CountersAccumulateAndReset)
{
    StatSet stats;
    ++stats.counter("events");
    stats.counter("events") += 4;
    EXPECT_EQ(stats.counter("events").value(), 5u);
    stats.reset();
    EXPECT_EQ(stats.counter("events").value(), 0u);
}

TEST(Stats, DistributionTracksMoments)
{
    StatSet stats;
    auto &d = stats.distribution("lat");
    d.sample(2.0);
    d.sample(10.0);
    d.sample(6.0);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 6.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 10.0);
}

TEST(Stats, DistributionVarianceAndStddev)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    // The classic example: mean 5, population variance 4.
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.variance(), 4.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 2.0);

    Distribution one;
    one.sample(3.0);
    EXPECT_EQ(one.variance(), 0.0);
    EXPECT_EQ(one.stddev(), 0.0);

    d.reset();
    EXPECT_EQ(d.variance(), 0.0);
}

TEST(Stats, ToJsonIsWellFormedAndComplete)
{
    StatSet stats;
    stats.counter("otn.rootToLeaf") += 12;
    auto &d = stats.distribution("lat");
    d.sample(1.0);
    d.sample(3.0);
    auto json = stats.toJson();
    EXPECT_NE(json.find("\"otn.rootToLeaf\": 12"), std::string::npos);
    EXPECT_NE(json.find("\"lat\""), std::string::npos);
    EXPECT_NE(json.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"mean\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"stddev\": 1"), std::string::npos);
}

TEST(Stats, EmptyDistributionIsZeroed)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.mean(), 0.0);
    EXPECT_EQ(d.min(), 0.0);
    EXPECT_EQ(d.max(), 0.0);
}

TEST(Stats, DumpFormat)
{
    StatSet stats;
    stats.counter("a") += 3;
    stats.distribution("b").sample(1.5);
    std::ostringstream os;
    stats.dump(os, "pre.");
    auto text = os.str();
    EXPECT_NE(text.find("pre.a 3"), std::string::npos);
    EXPECT_NE(text.find("pre.b.count 1"), std::string::npos);
    EXPECT_NE(text.find("pre.b.mean 1.5"), std::string::npos);
}

TEST(Rng, UniformStaysInRange)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        auto v = rng.uniform(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(2);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliRoughlyFair)
{
    Rng rng(3);
    int heads = 0;
    for (int i = 0; i < 10000; ++i)
        heads += rng.bernoulli(0.5);
    EXPECT_GT(heads, 4500);
    EXPECT_LT(heads, 5500);
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ShufflePreservesMultiset)
{
    Rng rng(5);
    std::vector<int> v{1, 2, 2, 3, 5, 8};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

} // namespace
