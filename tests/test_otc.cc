/**
 * @file
 * Tests for the orthogonal tree cycles (Sections V and VI): the cycle
 * primitives (CIRCULATE, ROOTTOCYCLE, CYCLETOROOT/-CYCLE and the
 * SUM/MIN variants), SORT-OTC, the OTC-emulated OTN, and the
 * area/time trade against the plain OTN.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "graph/generators.hh"
#include "graph/reference_algorithms.hh"
#include "otc/emulated_otn.hh"
#include "linalg/reference.hh"
#include "otc/network.hh"
#include "otc/sort.hh"
#include "otn/sort.hh"
#include "sim/rng.hh"
#include "simd/backend.hh"
#include "topo/registry.hh"
#include "trace/tracer.hh"

namespace {

using namespace ot::otc;
using ot::topo::Algo;
using ot::sim::Rng;
using ot::simd::Backend;
using ot::vlsi::CostModel;
using ot::vlsi::DelayModel;
using ot::vlsi::WordFormat;

CostModel
logCost(std::size_t n)
{
    return {DelayModel::Logarithmic, WordFormat::forProblemSize(n)};
}

std::vector<std::uint64_t>
sortedCopy(std::vector<std::uint64_t> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

/** The registry's "otc" machine for one (algo, n) instance. */
std::unique_ptr<ot::topo::Machine>
otcMachine(Algo algo, std::size_t n,
           DelayModel model = DelayModel::Logarithmic, bool scaled = false)
{
    return ot::topo::registry().build(
        ot::topo::resolveSpec("otc", algo, n, model, scaled));
}

/** SORT-OTC on the registry's standard machine for N = v.size(). */
ot::topo::SortRun
registrySort(const std::vector<std::uint64_t> &v,
             DelayModel model = DelayModel::Logarithmic, bool scaled = false)
{
    return otcMachine(Algo::Sort, v.size(), model, scaled)->runSort(v);
}

/** Number of `charged` (or uncharged) spans named `name` in a trace. */
std::size_t
countSpans(const ot::trace::Tracer &tracer, const std::string &name,
           bool charged)
{
    return std::count_if(
        tracer.events().begin(), tracer.events().end(), [&](const auto &e) {
            return e.kind == ot::trace::EventKind::Span && e.name == name &&
                   e.charged == charged;
        });
}

TEST(OtcNetwork, Shape)
{
    OtcNetwork net(4, 3, logCost(12));
    EXPECT_EQ(net.k(), 4u);
    EXPECT_EQ(net.cycleLen(), 3u);
    EXPECT_EQ(net.totalBps(), 48u);
}

TEST(OtcNetwork, CirculateShiftsTowardLowerIndex)
{
    OtcNetwork net(2, 4, logCost(8));
    for (std::size_t q = 0; q < 4; ++q)
        net.reg(Reg::A, 0, 0, q) = 10 + q;
    net.circulate(0, 0, {Reg::A});
    // R(q) := R((q+1) mod L).
    EXPECT_EQ(net.reg(Reg::A, 0, 0, 0), 11u);
    EXPECT_EQ(net.reg(Reg::A, 0, 0, 1), 12u);
    EXPECT_EQ(net.reg(Reg::A, 0, 0, 2), 13u);
    EXPECT_EQ(net.reg(Reg::A, 0, 0, 3), 10u);
}

TEST(OtcNetwork, CirculateLTimesIsIdentity)
{
    OtcNetwork net(2, 5, logCost(10));
    for (std::size_t q = 0; q < 5; ++q)
        net.reg(Reg::B, 1, 1, q) = q * 7;
    for (unsigned p = 0; p < 5; ++p)
        net.circulate(1, 1, {Reg::B});
    for (std::size_t q = 0; q < 5; ++q)
        EXPECT_EQ(net.reg(Reg::B, 1, 1, q), q * 7);
}

TEST(OtcNetwork, VectorCirculateTouchesWholeRow)
{
    OtcNetwork net(4, 2, logCost(8));
    for (std::size_t j = 0; j < 4; ++j) {
        net.reg(Reg::A, 2, j, 0) = j;
        net.reg(Reg::A, 2, j, 1) = 100 + j;
    }
    net.vectorCirculate(Axis::Row, 2, {Reg::A});
    for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_EQ(net.reg(Reg::A, 2, j, 0), 100 + j);
        EXPECT_EQ(net.reg(Reg::A, 2, j, 1), j);
    }
}

TEST(OtcNetwork, VectorCirculateChargesOneStep)
{
    // Untraced, the K circulates are counted in bulk; traced, each
    // also leaves an uncharged span.  The accounting is the same.
    for (bool traced : {false, true}) {
        SCOPED_TRACE(traced ? "traced" : "untraced");
        OtcNetwork net(4, 4, CostModel(DelayModel::Logarithmic,
                                       WordFormat::forProblemSize(64)));
        ot::trace::Tracer tracer;
        tracer.setEnabled(true);
        if (traced)
            net.setTracer(&tracer);
        ModelTime dt = net.vectorCirculate(Axis::Row, 0, {Reg::A});
        EXPECT_EQ(dt, net.circulateCost());
        EXPECT_EQ(net.now(), dt);
        // K circulates happened functionally...
        EXPECT_EQ(net.stats().counter("otc.circulate").value(), net.k());
        EXPECT_EQ(net.stats().counter("otc.vectorCirculate").value(), 1u);
        // ...but only one step advanced the clock.
        EXPECT_EQ(net.acct().steps(), 1u);
        // Traced, every cycle's circulate shows, uncharged.
        EXPECT_EQ(countSpans(tracer, "circulate", false),
                  traced ? net.k() : 0u);
        EXPECT_EQ(countSpans(tracer, "circulate", true), 0u);
        EXPECT_EQ(countSpans(tracer, "vectorCirculate", true),
                  traced ? 1u : 0u);
    }
}

TEST(OtcNetwork, RootToCyclePlacesWordQInBpQ)
{
    OtcNetwork net(4, 3, logCost(12));
    net.rowStream(1) = {7, 8, 9};
    net.rootToCycle(Axis::Row, 1, CSel::all(), Reg::A);
    for (std::size_t j = 0; j < 4; ++j)
        for (std::size_t q = 0; q < 3; ++q)
            EXPECT_EQ(net.reg(Reg::A, 1, j, q), 7 + q);
}

TEST(OtcNetwork, CycleToRootRoundTrip)
{
    OtcNetwork net(4, 3, logCost(12));
    for (std::size_t q = 0; q < 3; ++q)
        net.reg(Reg::B, 2, 1, q) = 20 + q;
    net.cycleToRoot(Axis::Col, 1, CSel::rowIs(2), Reg::B);
    EXPECT_EQ(net.colStream(1), (std::vector<std::uint64_t>{20, 21, 22}));
    // Source registers invariant (the paper's L-circulation argument).
    for (std::size_t q = 0; q < 3; ++q)
        EXPECT_EQ(net.reg(Reg::B, 2, 1, q), 20 + q);
}

TEST(OtcNetwork, SumCycleToRootSumsPositionwise)
{
    OtcNetwork net(4, 2, logCost(8));
    for (std::size_t j = 0; j < 4; ++j) {
        net.reg(Reg::C, 0, j, 0) = j;      // 0+1+2+3 = 6
        net.reg(Reg::C, 0, j, 1) = 10 * j; // 0+10+20+30 = 60
    }
    net.sumCycleToRoot(Axis::Row, 0, CSel::all(), Reg::C);
    EXPECT_EQ(net.rowStream(0), (std::vector<std::uint64_t>{6, 60}));
}

TEST(OtcNetwork, MinCycleToRootIgnoresNull)
{
    OtcNetwork net(4, 2, logCost(8));
    net.fillReg(Reg::C, kNull);
    net.reg(Reg::C, 1, 3, 0) = 5;
    net.reg(Reg::C, 3, 3, 0) = 2;
    net.minCycleToRoot(Axis::Col, 3, CSel::all(), Reg::C);
    EXPECT_EQ(net.colStream(3)[0], 2u);
    EXPECT_EQ(net.colStream(3)[1], kNull);
}

TEST(OtcNetwork, CycleToCycleBroadcastsWithinVector)
{
    OtcNetwork net(4, 2, logCost(8));
    net.reg(Reg::A, 2, 2, 0) = 41;
    net.reg(Reg::A, 2, 2, 1) = 42;
    net.cycleToCycle(Axis::Col, 2, CSel::rowIs(2), Reg::A, CSel::all(),
                     Reg::B);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(net.reg(Reg::B, i, 2, 0), 41u);
        EXPECT_EQ(net.reg(Reg::B, i, 2, 1), 42u);
    }
}

TEST(OtcNetwork, StreamCostIsLog2ForStandardMachine)
{
    // K = N/log N, L = log N: ops stay O(log^2 N).
    double lo = 1e18, hi = 0;
    for (std::size_t n : {64, 256, 1024, 4096}) {
        unsigned l = ot::vlsi::logCeilAtLeast1(n);
        OtcNetwork net(n / l, l, logCost(n));
        double logn = std::log2(static_cast<double>(n));
        double ratio =
            static_cast<double>(net.streamCost()) / (logn * logn);
        lo = std::min(lo, ratio);
        hi = std::max(hi, ratio);
    }
    EXPECT_LT(hi / lo, 8.0);
}

TEST(SortOtc, TinyExample)
{
    // 8 values: K = 4 ports (power of two), L = 3 -> capacity 12.
    std::vector<std::uint64_t> v{5, 1, 7, 3, 0, 6, 2, 4};
    auto r = registrySort(v);
    EXPECT_EQ(r.sorted, sortedCopy(v));
    EXPECT_GT(r.time, 0u);
}

TEST(SortOtc, DuplicatesAndAllEqual)
{
    std::vector<std::uint64_t> dup{3, 1, 3, 1, 3, 1, 3, 1};
    EXPECT_EQ(registrySort(dup).sorted, sortedCopy(dup));
    std::vector<std::uint64_t> eq(16, 9);
    EXPECT_EQ(registrySort(eq).sorted, eq);
}

TEST(SortOtc, ExplicitMachineAndPartialLoad)
{
    OtcNetwork net(4, 4, logCost(16));
    std::vector<std::uint64_t> v{9, 4, 11, 2, 7};
    EXPECT_EQ(sortOtc(net, v).sorted, sortedCopy(v));
}

// ------------------------------ SORT-OTC's data/accounting split

/**
 * SORT-OTC with steps 3 and 5 in their per-round formulation: base
 * steps through baseOp lambdas, B circulated by vectorCirculate on
 * every row in every round, and each output beat found by a scan of
 * the whole column.  sortOtc must be indistinguishable from it.
 */
SortOtcResult
perRoundSortOtc(OtcNetwork &net, const std::vector<std::uint64_t> &values)
{
    const std::size_t k = net.k();
    const unsigned l = net.cycleLen();
    ModelTime start = net.now();
    ot::sim::ScopedPhase phase(net.acct(), "sort-otc");

    for (std::size_t i = 0; i < k; ++i)
        for (std::size_t q = 0; q < l; ++q) {
            std::size_t g = i * l + q;
            net.rowStream(i)[q] = g < values.size() ? values[g] : kNull;
        }
    net.parallelFor(k, [&](std::size_t i) {
        net.rootToCycle(Axis::Row, i, CSel::all(), Reg::A);
    });
    net.parallelFor(k, [&](std::size_t i) {
        net.cycleToCycle(Axis::Col, i, CSel::rowIs(i), Reg::A, CSel::all(),
                         Reg::B);
    });

    net.baseOp(net.cost().bitSerialOp(),
               [&](std::size_t i, std::size_t j, std::size_t q) {
                   net.reg(Reg::C, i, j, q) = 0;
               });
    for (unsigned p = 0; p < l; ++p) {
        net.baseOp(net.cost().bitSerialOp(),
                   [&](std::size_t i, std::size_t j, std::size_t q) {
                       std::uint64_t a = net.reg(Reg::A, i, j, q);
                       std::uint64_t b = net.reg(Reg::B, i, j, q);
                       std::uint64_t ga = i * l + q;
                       std::uint64_t gb = j * l + (q + p) % l;
                       if (a > b || (a == b && ga > gb))
                           ++net.reg(Reg::C, i, j, q);
                   });
        net.parallelFor(k, [&](std::size_t i) {
            net.vectorCirculate(Axis::Row, i, {Reg::B});
        });
    }

    net.parallelFor(k, [&](std::size_t i) {
        net.sumCycleToCycle(Axis::Row, i, CSel::all(), Reg::C, CSel::all(),
                            Reg::R);
    });

    net.parallelFor(k, [&](std::size_t j) {
        for (unsigned p = 0; p < l; ++p) {
            std::uint64_t rank = std::uint64_t{p} * k + j;
            std::uint64_t out = kNull;
            for (std::size_t i = 0; i < k; ++i)
                for (std::size_t q = 0; q < l; ++q)
                    if (net.reg(Reg::R, i, j, q) == rank)
                        out = net.reg(Reg::A, i, j, q);
            net.colStream(j)[p] = out;
        }
        net.charge(net.streamCost() + (l - 1) * net.circulateCost());
    });

    SortOtcResult result;
    result.sorted.resize(values.size());
    for (std::size_t g = 0; g < values.size(); ++g)
        result.sorted[g] = net.colStream(g % k)[g / k];
    result.time = net.now() - start;
    return result;
}

std::map<std::string, std::uint64_t>
counterValues(OtcNetwork &net)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, c] : net.stats().counters())
        out[name] = c.value();
    return out;
}

std::vector<Backend>
availableBackends()
{
    std::vector<Backend> out;
    for (Backend b : {Backend::Scalar, Backend::Avx2})
        if (ot::simd::backendAvailable(b))
            out.push_back(b);
    return out;
}

TEST(SortOtc, MatchesPerRoundFormulation)
{
    const std::pair<std::size_t, unsigned> shapes[] = {
        {1, 1}, {2, 3}, {4, 4}, {8, 3}, {16, 5}};
    for (auto [k, l] : shapes) {
        const std::size_t cap = k * l;
        const CostModel cost = logCost(cap);
        Rng rng(31 * k + l);
        // Duplicates, all-equal keys, and a partial load (N not a
        // multiple of L) padded with kNull.
        std::vector<std::uint64_t> dup(cap), partial(cap - 1 - l / 2);
        for (auto &x : dup)
            x = rng.uniform(0, cap / 3);
        for (auto &x : partial)
            x = rng.uniform(0, cap);
        const std::vector<std::uint64_t> inputs[] = {
            dup, std::vector<std::uint64_t>(cap, cap / 2), partial};
        for (const auto &v : inputs) {
            for (Backend backend : availableBackends()) {
                for (bool traced : {false, true}) {
                    SCOPED_TRACE(::testing::Message()
                                 << "K=" << k << " L=" << l
                                 << " N=" << v.size() << " "
                                 << ot::simd::toString(backend)
                                 << (traced ? " traced" : " untraced"));
                    OtcNetwork ref(k, l, cost), net(k, l, cost);
                    ref.setSimdBackend(backend);
                    net.setSimdBackend(backend);
                    ot::trace::Tracer ref_trace, trace;
                    ref_trace.setEnabled(true);
                    trace.setEnabled(true);
                    if (traced) {
                        ref.setTracer(&ref_trace);
                        net.setTracer(&trace);
                    }
                    auto want = perRoundSortOtc(ref, v);
                    auto got = sortOtc(net, v);
                    EXPECT_EQ(got.sorted, sortedCopy(v));
                    EXPECT_EQ(got.sorted, want.sorted);
                    EXPECT_EQ(got.time, want.time);
                    for (Reg r : {Reg::A, Reg::B, Reg::C, Reg::R})
                        EXPECT_TRUE(std::equal(
                            ref.regPlane(r), ref.regPlane(r) + k * k * l,
                            net.regPlane(r)))
                            << "plane " << static_cast<unsigned>(r);
                    for (std::size_t j = 0; j < k; ++j) {
                        EXPECT_EQ(net.colStream(j), ref.colStream(j));
                        EXPECT_EQ(net.rowStream(j), ref.rowStream(j));
                    }
                    EXPECT_EQ(net.now(), ref.now());
                    EXPECT_EQ(net.acct().steps(), ref.acct().steps());
                    EXPECT_EQ(counterValues(net), counterValues(ref));
                    ASSERT_EQ(trace.events().size(),
                              ref_trace.events().size());
                    for (std::size_t e = 0; e < trace.events().size(); ++e)
                        ASSERT_TRUE(ot::trace::eventsEqual(
                            trace.events()[e], ref_trace.events()[e]))
                            << "event " << e;
                    // The reference shares chargeVectorCirculate, so
                    // pin the circulations' accounting on its own:
                    // K per row per round, traced per cycle.
                    auto &stats = net.stats();
                    EXPECT_EQ(stats.counter("otc.baseOp").value(), l + 1);
                    EXPECT_EQ(stats.counter("otc.vectorCirculate").value(),
                              k * l);
                    EXPECT_EQ(stats.counter("otc.circulate").value(),
                              k * k * l);
                    EXPECT_EQ(countSpans(trace, "circulate", false),
                              traced ? k * k * l : 0u);
                }
            }
        }
    }
}

TEST(SortOtc, TracedAndUntracedAccountingAgree)
{
    // The differential tests attach a tracer; this pins the bulk
    // (untraced) circulate accounting to exact totals.
    Rng rng(23);
    const std::size_t k = 8;
    const unsigned l = 5;
    std::vector<std::uint64_t> v(k * l - 2);
    for (auto &x : v)
        x = rng.uniform(0, k * l / 4);
    OtcNetwork plain(k, l, logCost(k * l)), traced(k, l, logCost(k * l));
    ot::trace::Tracer tracer;
    tracer.setEnabled(true);
    traced.setTracer(&tracer);
    auto a = sortOtc(plain, v);
    auto b = sortOtc(traced, v);
    EXPECT_EQ(a.sorted, b.sorted);
    EXPECT_EQ(plain.now(), traced.now());
    EXPECT_EQ(plain.acct().steps(), traced.acct().steps());
    EXPECT_EQ(countSpans(tracer, "circulate", false), k * k * l);
    for (OtcNetwork *net : {&plain, &traced}) {
        auto &stats = net->stats();
        EXPECT_EQ(stats.counter("otc.baseOp").value(), l + 1);
        EXPECT_EQ(stats.counter("otc.vectorCirculate").value(), k * l);
        EXPECT_EQ(stats.counter("otc.circulate").value(), k * k * l);
    }
    EXPECT_EQ(counterValues(plain), counterValues(traced));
}

// ------------------------------ primitives on shape-tagged planes

/**
 * Tag register r of `net` `shape` with the shape vectors `vecs`
 * (2 * K * L words), the way SORT-OTC leaves its planes.
 */
void
tagWith(OtcNetwork &net, Reg r, ot::simd::Shape shape,
        const std::vector<std::uint64_t> &vecs)
{
    std::copy(vecs.begin(), vecs.end(), net.tagPlane(r, shape));
}

/** One streamed or cycle primitive, run with register `s` tagged. */
struct TaggedCase
{
    const char *name;
    std::function<void(OtcNetwork &, Reg s, Reg other)> op;
    /** True iff the primitive only reads `s` (it must not expand it). */
    bool readsOnly;
};

std::vector<TaggedCase>
taggedCases()
{
    using Net = OtcNetwork;
    return {
        {"rootToCycle all",
         [](Net &n, Reg s, Reg) {
             n.rootToCycle(Axis::Row, 1, CSel::all(), s);
         },
         false},
        {"rootToCycle one cycle",
         [](Net &n, Reg s, Reg) {
             n.rootToCycle(Axis::Col, 2, CSel::rowIs(1), s);
         },
         false},
        {"cycleToRoot row",
         [](Net &n, Reg s, Reg) {
             n.cycleToRoot(Axis::Row, 2, CSel::colIs(3), s);
         },
         true},
        {"cycleToRoot col",
         [](Net &n, Reg s, Reg) {
             n.cycleToRoot(Axis::Col, 1, CSel::rowIs(2), s);
         },
         true},
        {"cycleToRoot none",
         [](Net &n, Reg s, Reg) {
             n.cycleToRoot(Axis::Col, 0, CSel::none(), s);
         },
         true},
        {"sumCycleToRoot",
         [](Net &n, Reg s, Reg) {
             n.sumCycleToRoot(Axis::Row, 3, CSel::all(), s);
             n.sumCycleToRoot(Axis::Col, 0, CSel::rowIs(2), s);
         },
         true},
        {"minCycleToRoot",
         [](Net &n, Reg s, Reg) {
             n.minCycleToRoot(Axis::Col, 2, CSel::all(), s);
             n.minCycleToRoot(Axis::Row, 1, CSel::colIs(0), s);
         },
         true},
        {"cycleToCycle from S",
         [](Net &n, Reg s, Reg other) {
             n.cycleToCycle(Axis::Col, 1, CSel::rowIs(1), s, CSel::all(),
                            other);
         },
         true},
        {"cycleToCycle into S",
         [](Net &n, Reg s, Reg other) {
             n.cycleToCycle(Axis::Row, 0, CSel::colIs(2), other,
                            CSel::colIs(1), s);
         },
         false},
        {"cycleToCycle S to S",
         [](Net &n, Reg s, Reg) {
             n.cycleToCycle(Axis::Row, 3, CSel::colIs(0), s, CSel::all(), s);
         },
         false},
        {"sumCycleToCycle",
         [](Net &n, Reg s, Reg other) {
             n.sumCycleToCycle(Axis::Row, 2, CSel::all(), s, CSel::all(),
                               other);
         },
         true},
        {"circulate",
         [](Net &n, Reg s, Reg other) { n.circulate(1, 2, {s, other}); },
         false},
        {"vectorCirculate",
         [](Net &n, Reg s, Reg) {
             n.vectorCirculate(Axis::Row, 2, {s});
             n.vectorCirculate(Axis::Col, 1, {s});
         },
         false},
        {"baseOp",
         [](Net &n, Reg s, Reg other) {
             n.baseOp(n.cost().bitSerialOp(),
                      [&](std::size_t i, std::size_t j, std::size_t q) {
                          n.reg(other, i, j, q) += n.reg(s, i, j, q);
                      });
         },
         false},
    };
}

TEST(OtcNetwork, PrimitivesOnTaggedPlanesMatchDense)
{
    // Every per-cycle primitive on a tagged plane must behave as on
    // the same plane materialized first: same planes, streams, clock,
    // counters and trace.  A primitive that only reads the plane reads
    // it through its shape, without expanding it.
    const std::size_t k = 4;
    const unsigned l = 3;
    const std::size_t words = k * k * l;
    const CostModel cost = logCost(k * l);
    const ot::simd::Shape shapes[] = {ot::simd::Shape::RowConst,
                                      ot::simd::Shape::ColConst,
                                      ot::simd::Shape::RankCount};
    Rng rng(907);
    for (const TaggedCase &c : taggedCases())
        for (ot::simd::Shape shape : shapes)
            for (Backend backend : availableBackends()) {
                SCOPED_TRACE(::testing::Message()
                             << c.name << " shape "
                             << static_cast<int>(shape) << " "
                             << ot::simd::toString(backend));
                // Small values, so RankCount sees ties, and kNull.
                std::vector<std::uint64_t> vecs(2 * k * l), dense(words);
                for (auto &w : vecs)
                    w = rng.uniform(0, 5) == 0 ? kNull : rng.uniform(0, 4);
                for (auto &w : dense)
                    w = rng.uniform(0, 9);
                OtcNetwork ref(k, l, cost), net(k, l, cost);
                ot::trace::Tracer ref_trace, trace;
                for (auto [m, t] : {std::pair{&ref, &ref_trace},
                                    std::pair{&net, &trace}}) {
                    m->setSimdBackend(backend);
                    t->setEnabled(true);
                    m->setTracer(t);
                    std::copy(dense.begin(), dense.end(),
                              m->regPlane(Reg::X));
                    for (std::size_t i = 0; i < k; ++i) {
                        for (unsigned q = 0; q < l; ++q) {
                            m->rowStream(i)[q] = 100 + i * l + q;
                            m->colStream(i)[q] = 200 + i * l + q;
                        }
                    }
                    tagWith(*m, Reg::C, shape, vecs);
                }
                ref.regPlane(Reg::C); // materialize the reference
                ASSERT_EQ(ref.regShape(Reg::C), ot::simd::Shape::Dense);

                c.op(ref, Reg::C, Reg::X);
                c.op(net, Reg::C, Reg::X);
                if (c.readsOnly) {
                    EXPECT_EQ(net.regShape(Reg::C), shape);
                    EXPECT_EQ(net.materializations(), 0u);
                }
                for (unsigned r = 0; r < ot::otn::kNumRegs; ++r)
                    EXPECT_TRUE(std::equal(
                        ref.regPlane(static_cast<Reg>(r)),
                        ref.regPlane(static_cast<Reg>(r)) + words,
                        net.regPlane(static_cast<Reg>(r))))
                        << "plane " << r;
                for (std::size_t i = 0; i < k; ++i) {
                    EXPECT_EQ(net.rowStream(i), ref.rowStream(i)) << i;
                    EXPECT_EQ(net.colStream(i), ref.colStream(i)) << i;
                }
                EXPECT_EQ(net.now(), ref.now());
                EXPECT_EQ(net.acct().steps(), ref.acct().steps());
                EXPECT_EQ(counterValues(net), counterValues(ref));
                ASSERT_EQ(trace.events().size(), ref_trace.events().size());
                for (std::size_t e = 0; e < trace.events().size(); ++e)
                    ASSERT_TRUE(ot::trace::eventsEqual(
                        trace.events()[e], ref_trace.events()[e]))
                        << "event " << e;
            }
}

/** Property sweep: random inputs across sizes and seeds. */
class SortOtcRandom
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>>
{
};

TEST_P(SortOtcRandom, MatchesStdSort)
{
    auto [n, seed] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) * 101 + n);
    std::vector<std::uint64_t> v(n);
    for (auto &x : v)
        x = rng.uniform(0, n - 1);
    EXPECT_EQ(registrySort(v).sorted, sortedCopy(v));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SortOtcRandom,
    ::testing::Combine(::testing::Values(4, 8, 16, 32, 64, 128),
                       ::testing::Values(1, 2, 3)));

TEST(SortOtc, TimeShapeIsLogSquared)
{
    double lo = 1e18, hi = 0;
    Rng rng(12);
    for (std::size_t n : {64, 256, 1024}) {
        auto v = rng.permutation(n);
        auto r = registrySort(v);
        double logn = std::log2(static_cast<double>(n));
        double ratio = static_cast<double>(r.time) / (logn * logn);
        lo = std::min(lo, ratio);
        hi = std::max(hi, ratio);
    }
    EXPECT_LT(hi / lo, 12.0);
}

TEST(SortOtc, MatchesOtnTimeAsymptoticsWithLessArea)
{
    // Section V-A's punchline: same O(log^2 N) time as the OTN on a
    // Theta(log^2 N)-times smaller chip.
    Rng rng(13);
    std::size_t n = 1024;
    auto v = rng.permutation(n);

    auto r_otc = registrySort(v);
    ot::otn::OrthogonalTreesNetwork otn_net(n, logCost(n));
    auto r_otn = ot::otn::sortOtn(otn_net, v);
    EXPECT_EQ(r_otc.sorted, r_otn.sorted);

    // Time within a constant factor of each other...
    double ratio = static_cast<double>(r_otc.time) /
                   static_cast<double>(r_otn.time);
    EXPECT_LT(ratio, 12.0);
    // ...but the OTC chip is much smaller.
    unsigned l = ot::vlsi::logCeilAtLeast1(n);
    OtcNetwork otc_net(n / l, l, logCost(n));
    EXPECT_LT(otc_net.chipLayout().metrics().area(),
              otn_net.chipLayout().metrics().area() / 4);
}

TEST(OtcEmulatedOtn, BehavesLikeOtnFunctionally)
{
    // Sorting on the emulated machine gives identical results.
    Rng rng(14);
    std::size_t n = 32;
    auto v = rng.permutation(n);
    OtcEmulatedOtn emu(n, logCost(n));
    auto r = ot::otn::sortOtn(emu, v);
    EXPECT_EQ(r.sorted, sortedCopy(v));
}

TEST(OtcEmulatedOtn, AreaSmallerTimeComparable)
{
    std::size_t n = 256;
    OtcEmulatedOtn emu(n, logCost(n));
    ot::otn::OrthogonalTreesNetwork plain(n, logCost(n));
    EXPECT_LT(emu.otcLayout().metrics().area(),
              plain.chipLayout().metrics().area());
    double ratio = static_cast<double>(emu.treeTraversalCost()) /
                   static_cast<double>(plain.treeTraversalCost());
    EXPECT_LT(ratio, 8.0);
    EXPECT_GT(ratio, 0.25);
}

/** CC of `g` on the registry's machine for the next power of two. */
void
expectCcMatchesUnionFind(const ot::graph::Graph &g)
{
    // The registry builds power-of-two machines; a smaller graph
    // occupies the first vertices of the next size up.
    auto m = otcMachine(Algo::ConnectedComponents,
                        ot::vlsi::nextPow2(g.vertices()));
    auto r = m->runConnectedComponents(g);
    EXPECT_EQ(r.labels, ot::graph::connectedComponents(g))
        << "n = " << g.vertices();
    EXPECT_GT(m->area(), 0u);
}

TEST(CcOtc, MatchesUnionFind)
{
    Rng rng(15);
    for (std::size_t n : {8, 16, 32})
        expectCcMatchesUnionFind(
            ot::graph::randomGnp(n, 1.8 / static_cast<double>(n), rng));

    ot::graph::Graph path(8);
    for (std::size_t v = 0; v + 1 < 8; ++v)
        path.addEdge(v, v + 1);
    expectCcMatchesUnionFind(path);

    // Star with a max-label centre.
    ot::graph::Graph star(8);
    for (std::size_t v = 0; v < 7; ++v)
        star.addEdge(7, v);
    expectCcMatchesUnionFind(star);

    // G(n, 2/n) at larger N, and non-power-of-two vertex counts.
    for (std::size_t n : {64, 128, 12, 24, 48})
        for (std::uint64_t seed : {1, 2, 3}) {
            Rng graph_rng(seed * 53 + n);
            expectCcMatchesUnionFind(ot::graph::randomGnp(
                n, 2.0 / static_cast<double>(n), graph_rng));
        }
}

TEST(MstOtc, MatchesKruskal)
{
    Rng rng(16);
    for (std::size_t n : {8, 16}) {
        auto g = ot::graph::randomWeightedConnected(n, n, rng);
        auto r = otcMachine(Algo::Mst, n)->runMst(g);
        EXPECT_EQ(r.edges, ot::graph::kruskalMsf(g)) << "n = " << n;
    }

    // A disconnected graph: three edges, five components.
    ot::graph::WeightedGraph forest(8);
    forest.addEdge(0, 1, 3);
    forest.addEdge(2, 3, 1);
    forest.addEdge(5, 6, 2);
    auto r = otcMachine(Algo::Mst, 8)->runMst(forest);
    EXPECT_EQ(r.edges, ot::graph::kruskalMsf(forest));
    EXPECT_TRUE(ot::graph::isSpanningForest(forest, r.edges));
}

TEST(MatMulOtc, MatchesReference)
{
    Rng rng(17);
    std::size_t n = 8;
    ot::linalg::IntMatrix a(n, n), b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            a(i, j) = rng.uniform(0, 5);
            b(i, j) = rng.uniform(0, 5);
        }
    auto r = otcMachine(Algo::MatMul, n)->runMatMul(a, b);
    EXPECT_EQ(r.product, ot::linalg::matMul(a, b));
}

TEST(BoolMatMulOtc, MatchesReferenceAndUsesCompactChip)
{
    Rng rng(18);
    std::size_t n = 16;
    ot::linalg::BoolMatrix a(n, n, 0), b(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            a(i, j) = rng.bernoulli(0.3);
            b(i, j) = rng.bernoulli(0.3);
        }
    auto r = otcMachine(Algo::BoolMatMul, n)->runBoolMatMul(a, b);
    auto expect = ot::linalg::boolMatMul(a, b);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_EQ(r.product(i, j), expect(i, j));
    EXPECT_GT(r.area, 0u); // the compact Table II chip
}


// ------------------------------------------ OTC model-policy checks

TEST(SortOtc, DelayModelNeverChangesResults)
{
    Rng rng(71);
    std::size_t n = 64;
    std::vector<std::uint64_t> v(n);
    for (auto &x : v)
        x = rng.uniform(0, n - 1);
    std::vector<std::uint64_t> expect;
    for (auto model : {DelayModel::Logarithmic, DelayModel::Constant,
                       DelayModel::Linear}) {
        auto sorted = registrySort(v, model).sorted;
        if (expect.empty())
            expect = sorted;
        EXPECT_EQ(sorted, expect);
    }
}

TEST(SortOtc, ScaledTreesSpeedUpTheStreams)
{
    Rng rng(72);
    std::size_t n = 256;
    auto v = rng.permutation(n);
    auto plain = registrySort(v);
    auto scaled = registrySort(v, DelayModel::Logarithmic, /*scaled=*/true);
    EXPECT_LT(scaled.time, plain.time);
    EXPECT_EQ(scaled.sorted, plain.sorted);
}

TEST(OtcNetwork, StreamCostScalesWithCycleLength)
{
    // Longer cycles stream more words per op: cost grows ~L for a
    // fixed tree.
    CostModel cm(DelayModel::Logarithmic, WordFormat(16));
    OtcNetwork short_cycles(16, 4, cm);
    OtcNetwork long_cycles(16, 16, cm);
    EXPECT_GT(long_cycles.streamCost(), 2 * short_cycles.streamCost());
}

} // namespace
