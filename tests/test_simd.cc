/**
 * @file
 * Tests for the SIMD batch-kernel layer (src/simd) and the contract
 * the rest of the tree builds on: every compiled vector backend is
 * bit-identical to the scalar fallback in registers, model time,
 * stats counters and trace streams — at any OT_HOST_THREADS — and the
 * OT_SIMD override dies loudly instead of silently falling back.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "otc/emulated_otn.hh"
#include "otc/network.hh"
#include "otc/sort.hh"
#include "otn/bitonic.hh"
#include "otn/network.hh"
#include "otn/patterns.hh"
#include "otn/sort.hh"
#include "sim/chain_engine.hh"
#include "sim/rng.hh"
#include "simd/backend.hh"
#include "simd/kernels.hh"
#include "simd/regfile.hh"
#include "trace/export.hh"
#include "trace/tracer.hh"

namespace {

using namespace ot;
using otn::OrthogonalTreesNetwork;
using otn::Reg;
using sim::Rng;
using vlsi::CostModel;
using vlsi::DelayModel;
using vlsi::WordFormat;

CostModel
logCost(std::size_t n)
{
    return {DelayModel::Logarithmic, WordFormat::forProblemSize(n)};
}

/** The vector backends this build can actually run (may be empty). */
std::vector<simd::Backend>
vectorBackends()
{
    std::vector<simd::Backend> out;
    for (simd::Backend b : {simd::Backend::Avx2, simd::Backend::Neon})
        if (simd::backendAvailable(b))
            out.push_back(b);
    return out;
}

std::vector<std::uint64_t>
randomWords(Rng &rng, std::size_t n, std::uint64_t hi)
{
    std::vector<std::uint64_t> v(n);
    for (auto &w : v) {
        w = rng.uniform(0, hi);
        if (rng.uniform(0, 9) == 0)
            w = simd::kNullWord; // exercise the absent-value word
    }
    return v;
}

// ----------------------------------------------------------------------
// RegFile
// ----------------------------------------------------------------------

TEST(RegFile, PlanesAreZeroedDisjointAndAligned)
{
    simd::RegFile rf(3, 37); // odd size: stride rounds up
    EXPECT_EQ(rf.planes(), 3u);
    EXPECT_EQ(rf.planeSize(), 37u);
    for (unsigned p = 0; p < 3; ++p) {
        auto addr = reinterpret_cast<std::uintptr_t>(rf.plane(p));
        EXPECT_EQ(addr % simd::RegFile::kAlign, 0u) << "plane " << p;
        for (std::size_t i = 0; i < 37; ++i)
            ASSERT_EQ(rf.at(p, i), 0u);
    }
    for (std::size_t i = 0; i < 37; ++i)
        rf.at(1, i) = i + 1;
    for (std::size_t i = 0; i < 37; ++i) {
        ASSERT_EQ(rf.at(0, i), 0u) << "plane 0 clobbered at " << i;
        ASSERT_EQ(rf.at(2, i), 0u) << "plane 2 clobbered at " << i;
    }
}

/** True iff every word of plane p reads zero through the const view. */
bool
planeIsZero(const simd::RegFile &rf, unsigned p)
{
    const std::uint64_t *lane = rf.plane(p);
    return std::all_of(lane, lane + rf.planeSize(),
                       [](std::uint64_t w) { return w == 0; });
}

TEST(RegFile, FreshFileReadsZeroWithoutDirtyingAnyPlane)
{
    // 2^20 words (8 MB) per plane: above glibc's mmap threshold, so
    // the zeros come from fresh OS pages rather than a memset.
    for (std::size_t words : {std::size_t{37}, std::size_t{1} << 20}) {
        const simd::RegFile rf(4, words);
        for (unsigned p = 0; p < 4; ++p) {
            EXPECT_TRUE(planeIsZero(rf, p)) << words << " plane " << p;
            EXPECT_EQ(rf.at(p, words - 1), 0u);
        }
        EXPECT_EQ(rf.dirtyMask(), 0u);
    }
}

TEST(RegFile, WritesDirtyOnlyTheirPlane)
{
    simd::RegFile rf(5, 100);
    rf.at(1, 7) = 42;
    EXPECT_EQ(rf.dirtyMask(), 1u << 1);
    rf.plane(3)[99] = 9;
    EXPECT_EQ(rf.dirtyMask(), (1u << 1) | (1u << 3));
    const simd::RegFile &view = rf;
    for (unsigned p : {0u, 2u, 4u})
        EXPECT_TRUE(planeIsZero(view, p)) << "plane " << p;
    EXPECT_EQ(view.at(1, 7), 42u);
    EXPECT_EQ(view.at(3, 99), 9u);
    EXPECT_EQ(rf.dirtyMask(), (1u << 1) | (1u << 3));
}

TEST(RegFile, ClearZeroesEveryPlaneAndResetsTheMask)
{
    simd::RegFile rf(12, 1000);
    for (unsigned p = 0; p < 12; p += 2)
        std::fill(rf.plane(p), rf.plane(p) + 1000, p + 1);
    rf.at(11, 0) = 5;
    rf.clear();
    EXPECT_EQ(rf.dirtyMask(), 0u);
    for (unsigned p = 0; p < 12; ++p)
        EXPECT_TRUE(planeIsZero(rf, p)) << "plane " << p;
    // Reusable after a clear: writes mark again, clear zeroes again.
    rf.at(4, 999) = 1;
    EXPECT_EQ(rf.dirtyMask(), 1u << 4);
    rf.clear();
    EXPECT_TRUE(planeIsZero(rf, 4));
}

// The clean-plane scan in clear() runs in unoptimized builds only.
#if !defined(NDEBUG) && !defined(__OPTIMIZE__)
TEST(RegFileDeathTest, ClearCatchesAWriteThatBypassedTheMark)
{
    simd::RegFile rf(3, 64);
    std::uint64_t *stale = rf.plane(2);
    rf.clear();
    stale[5] = 1; // plane 2 is clean again, so this write is unmarked
    EXPECT_DEATH(rf.clear(), "without marking");
}
#endif

// ----------------------------------------------------------------------
// Kernel-level differential: every vector kernel vs the scalar one
// ----------------------------------------------------------------------

class KernelDifferential
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(KernelDifferential, AllKernelsMatchScalar)
{
    const std::size_t n = GetParam();
    const auto &sc = simd::scalarKernels();
    Rng rng(8821 + n);
    const auto a = randomWords(rng, n, ~std::uint64_t{0} - 1);
    const auto b = randomWords(rng, n, ~std::uint64_t{0} - 1);
    // Keys that sometimes hit their own index (the select/scatter
    // kernels' match condition) and sometimes miss.
    std::vector<std::uint64_t> key(n);
    for (std::size_t j = 0; j < n; ++j)
        key[j] = rng.uniform(0, 1) ? j : rng.uniform(0, 2 * n + 1);

    for (simd::Backend backend : vectorBackends()) {
        SCOPED_TRACE(simd::toString(backend));
        const auto &vec = simd::kernelsFor(backend);

        std::vector<std::uint64_t> s(n), v(n);
        sc.fill(s.data(), n, 0xfeedu);
        vec.fill(v.data(), n, 0xfeedu);
        EXPECT_EQ(s, v) << "fill";

        EXPECT_EQ(sc.countNonzero(a.data(), n),
                  vec.countNonzero(a.data(), n));
        EXPECT_EQ(sc.reduceSum(a.data(), n), vec.reduceSum(a.data(), n));
        EXPECT_EQ(sc.reduceMin(a.data(), n), vec.reduceMin(a.data(), n));
        EXPECT_EQ(sc.reduceMin(a.data(), 0), vec.reduceMin(a.data(), 0));

        for (std::uint64_t i : {std::uint64_t{0}, std::uint64_t{n / 2}}) {
            sc.cmpRankRow(s.data(), a.data(), b.data(), n, i);
            vec.cmpRankRow(v.data(), a.data(), b.data(), n, i);
            EXPECT_EQ(s, v) << "cmpRankRow i=" << i;
        }
        // Equal inputs: only the index tiebreak decides.
        sc.cmpRankRow(s.data(), a.data(), a.data(), n, n / 2);
        vec.cmpRankRow(v.data(), a.data(), a.data(), n, n / 2);
        EXPECT_EQ(s, v) << "cmpRankRow ties";

        sc.selectEqIndexRow(s.data(), key.data(), a.data(), n);
        vec.selectEqIndexRow(v.data(), key.data(), a.data(), n);
        EXPECT_EQ(s, v) << "selectEqIndexRow";

        std::vector<std::uint64_t> scnt(n, 0), vcnt(n, 0);
        sc.fill(s.data(), n, simd::kNullWord);
        vec.fill(v.data(), n, simd::kNullWord);
        sc.scatterEqIndexRow(s.data(), scnt.data(), key.data(), a.data(),
                             n);
        vec.scatterEqIndexRow(v.data(), vcnt.data(), key.data(), a.data(),
                              n);
        EXPECT_EQ(s, v) << "scatterEqIndexRow out";
        EXPECT_EQ(scnt, vcnt) << "scatterEqIndexRow cnt";

        for (std::uint64_t target : {std::uint64_t{0},
                                     std::uint64_t{n - 1},
                                     std::uint64_t{3 * n}}) {
            std::uint64_t sout = 7, smatches = 0, vout = 7, vmatches = 0;
            sc.pickEqIndexAccum(&sout, &smatches, key.data(), a.data(), n,
                                target);
            vec.pickEqIndexAccum(&vout, &vmatches, key.data(), a.data(),
                                 n, target);
            EXPECT_EQ(sout, vout) << "pickEqIndexAccum " << target;
            EXPECT_EQ(smatches, vmatches);
        }

        // rotateCycles: single segment, contiguous batch, and a
        // column-style strided batch.
        s = a;
        v = a;
        sc.rotateCycles(s.data(), 1, 0, n);
        vec.rotateCycles(v.data(), 1, 0, n);
        EXPECT_EQ(s, v) << "rotateCycles single";
        if (n % 4 == 0) {
            s = a;
            v = a;
            sc.rotateCycles(s.data(), 4, n / 4, n / 4);
            vec.rotateCycles(v.data(), 4, n / 4, n / 4);
            EXPECT_EQ(s, v) << "rotateCycles batch";
            s = a;
            v = a;
            sc.rotateCycles(s.data(), 2, n / 2, n / 4);
            vec.rotateCycles(v.data(), 2, n / 2, n / 4);
            EXPECT_EQ(s, v) << "rotateCycles strided";
        }
    }
}

// Odd lengths drive the scalar epilogues of the vector kernels.
INSTANTIATE_TEST_SUITE_P(Sweep, KernelDifferential,
                         ::testing::Values(4, 5, 16, 17, 64, 256, 1024));

TEST(KernelDifferential, CompexLinearFullBitonicSchedule)
{
    const std::size_t total = 1024;
    const auto &sc = simd::scalarKernels();
    Rng rng(31337);
    const auto init = randomWords(rng, total, ~std::uint64_t{0} - 1);

    for (simd::Backend backend : vectorBackends()) {
        SCOPED_TRACE(simd::toString(backend));
        const auto &vec = simd::kernelsFor(backend);
        std::vector<std::uint64_t> s = init, v = init;
        for (std::size_t size = 2; size <= total; size <<= 1)
            for (std::size_t d = size / 2; d >= 1; d >>= 1) {
                sc.compexLinear(s.data(), total, d, size);
                vec.compexLinear(v.data(), total, d, size);
                ASSERT_EQ(s, v) << "size=" << size << " d=" << d;
            }
        // The schedule is a complete bitonic sort; both ends must be
        // actually sorted, not merely identical.
        EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    }
}

// ----------------------------------------------------------------------
// Backend resolution and the OT_SIMD override
// ----------------------------------------------------------------------

TEST(SimdBackend, ScalarIsAlwaysThere)
{
    EXPECT_TRUE(simd::backendCompiled(simd::Backend::Scalar));
    EXPECT_TRUE(simd::backendAvailable(simd::Backend::Scalar));
    EXPECT_STREQ(simd::toString(simd::Backend::Scalar), "scalar");
    EXPECT_EQ(simd::backendFromSpec("scalar"), simd::Backend::Scalar);
    // The cached table matches the active backend's.
    EXPECT_EQ(&simd::kernels(), &simd::kernelsFor(simd::activeBackend()));
}

TEST(SimdBackend, EnvOverrideSelectsAndRestores)
{
    const char *saved = std::getenv("OT_SIMD");
    std::string saved_value = saved ? saved : "";

    ::setenv("OT_SIMD", "scalar", 1);
    EXPECT_EQ(simd::resolveBackendFromEnv(), simd::Backend::Scalar);
    ::unsetenv("OT_SIMD");
    // Unset: the best available backend, never an unavailable one.
    simd::Backend def = simd::resolveBackendFromEnv();
    EXPECT_TRUE(simd::backendAvailable(def));
    for (simd::Backend b : vectorBackends()) {
        ::setenv("OT_SIMD", simd::toString(b), 1);
        EXPECT_EQ(simd::resolveBackendFromEnv(), b);
    }

    if (saved)
        ::setenv("OT_SIMD", saved_value.c_str(), 1);
    else
        ::unsetenv("OT_SIMD");
}

using SimdBackendDeathTest = ::testing::Test;

TEST(SimdBackendDeathTest, UnknownSpecAborts)
{
    EXPECT_DEATH(simd::backendFromSpec("wombat"), "OT_SIMD");
    EXPECT_DEATH(simd::backendFromSpec(""), "OT_SIMD");
    EXPECT_DEATH(simd::backendFromSpec("AVX2"), "OT_SIMD"); // case-exact
}

TEST(SimdBackendDeathTest, UnavailableBackendRefusesToFallBack)
{
    for (simd::Backend b : {simd::Backend::Avx2, simd::Backend::Neon}) {
        if (!simd::backendAvailable(b)) {
            EXPECT_DEATH(simd::backendFromSpec(simd::toString(b)),
                         "refusing to fall back");
        }
    }
}

TEST(SimdBackendDeathTest, BadEnvValueAborts)
{
    const char *saved = std::getenv("OT_SIMD");
    std::string saved_value = saved ? saved : "";
    ::setenv("OT_SIMD", "sse9", 1);
    EXPECT_DEATH(simd::resolveBackendFromEnv(), "OT_SIMD");
    if (saved)
        ::setenv("OT_SIMD", saved_value.c_str(), 1);
    else
        ::unsetenv("OT_SIMD");
}

// ----------------------------------------------------------------------
// Network-level differential: scalar vs vector, on 1 and 8 farm lanes
// ----------------------------------------------------------------------

/** Registers, roots, clock, steps and counters must match exactly. */
void
expectSameOtnState(OrthogonalTreesNetwork &a, OrthogonalTreesNetwork &b)
{
    ASSERT_EQ(a.n(), b.n());
    EXPECT_EQ(a.now(), b.now()) << "model time diverged";
    EXPECT_EQ(a.acct().steps(), b.acct().steps()) << "steps diverged";
    const std::size_t plane = a.n() * a.n();
    for (unsigned r = 0; r < otn::kNumRegs; ++r) {
        ASSERT_EQ(std::memcmp(a.regPlane(static_cast<Reg>(r)),
                              b.regPlane(static_cast<Reg>(r)),
                              plane * sizeof(std::uint64_t)),
                  0)
            << "register plane " << r << " diverged";
    }
    for (std::size_t i = 0; i < a.n(); ++i) {
        ASSERT_EQ(a.rowRoot(i), b.rowRoot(i)) << "rowRoot " << i;
        ASSERT_EQ(a.colRoot(i), b.colRoot(i)) << "colRoot " << i;
    }
    const auto &ca = a.stats().counters();
    const auto &cb = b.stats().counters();
    ASSERT_EQ(ca.size(), cb.size()) << "counter sets diverged";
    for (const auto &[name, c] : ca)
        EXPECT_EQ(c.value(), cb.at(name).value()) << "counter " << name;
}

/** Trace streams must be identical event for event. */
void
expectSameTrace(const trace::Tracer &a, const trace::Tracer &b)
{
    ASSERT_EQ(a.events().size(), b.events().size())
        << "trace lengths diverged";
    EXPECT_EQ(a.dropped(), b.dropped());
    for (std::size_t i = 0; i < a.events().size(); ++i)
        ASSERT_TRUE(trace::eventsEqual(a.events()[i], b.events()[i]))
            << "trace event " << i << " diverged";
    EXPECT_EQ(trace::toChromeTraceJson(a), trace::toChromeTraceJson(b));
}

struct DiffCase
{
    std::size_t n;
    /** Farm lanes that each run the whole differential at once. */
    unsigned threads;
};

/**
 * Run `body` once on each of `lanes` host lanes at the same time, the
 * way BatchEngine's host phase drives machines: every lane builds and
 * runs its own networks, so concurrent machines (sharing kernel
 * tables and per-thread scratch) must still match scalar bit for bit.
 */
void
onFarmLanes(unsigned lanes, const std::function<void()> &body)
{
    sim::TimeAccountant acct;
    sim::StatSet stats;
    sim::ChainEngine(acct, stats, lanes).hostFor(lanes, [&](std::size_t) {
        body();
    });
}

class NetworkDifferential : public ::testing::TestWithParam<DiffCase>
{
};

TEST_P(NetworkDifferential, SortOtn)
{
    const DiffCase param = GetParam();
    const std::size_t n = param.n;
    onFarmLanes(param.threads, [&] {
        Rng rng(515 + n);
        std::vector<std::uint64_t> values(n);
        for (auto &v : values)
            v = rng.uniform(0, n - 1);
        std::vector<std::uint64_t> expect = values;
        std::sort(expect.begin(), expect.end());

        OrthogonalTreesNetwork ref(n, logCost(n));
        ref.setSimdBackend(simd::Backend::Scalar);
        trace::Tracer ref_trace;
        ref_trace.setEnabled(true);
        ref.setTracer(&ref_trace);
        auto rs = sortOtn(ref, values);
        EXPECT_EQ(rs.sorted, expect);

        for (simd::Backend backend : vectorBackends()) {
            SCOPED_TRACE(simd::toString(backend));
            OrthogonalTreesNetwork net(n, logCost(n));
            net.setSimdBackend(backend);
            ASSERT_EQ(net.simdBackend(), backend);
            trace::Tracer tr;
            tr.setEnabled(true);
            net.setTracer(&tr);
            auto rv = sortOtn(net, values);
            EXPECT_EQ(rv.sorted, expect);
            EXPECT_EQ(rs.time, rv.time);
            expectSameOtnState(ref, net);
            expectSameTrace(ref_trace, tr);
        }
    });
}

TEST_P(NetworkDifferential, BitonicSortOtn)
{
    const DiffCase param = GetParam();
    const std::size_t n = param.n;
    onFarmLanes(param.threads, [&] {
        Rng rng(77 + n);
        std::vector<std::uint64_t> values(n * n);
        for (auto &v : values)
            v = rng.uniform(0, n * n - 1);
        std::vector<std::uint64_t> expect = values;
        std::sort(expect.begin(), expect.end());

        OrthogonalTreesNetwork ref(n, logCost(n * n));
        ref.setSimdBackend(simd::Backend::Scalar);
        trace::Tracer ref_trace;
        ref_trace.setEnabled(true);
        ref.setTracer(&ref_trace);
        auto rs = bitonicSortOtn(ref, values, otn::CompexSchedule::Streamed);
        EXPECT_EQ(rs.sorted, expect);

        for (simd::Backend backend : vectorBackends()) {
            SCOPED_TRACE(simd::toString(backend));
            OrthogonalTreesNetwork net(n, logCost(n * n));
            net.setSimdBackend(backend);
            trace::Tracer tr;
            tr.setEnabled(true);
            net.setTracer(&tr);
            auto rv =
                bitonicSortOtn(net, values, otn::CompexSchedule::Streamed);
            EXPECT_EQ(rv.sorted, expect);
            EXPECT_EQ(rs.time, rv.time);
            EXPECT_EQ(rs.stages, rv.stages);
            expectSameOtnState(ref, net);
            expectSameTrace(ref_trace, tr);
        }
    });
}

TEST_P(NetworkDifferential, PatternsAndGather)
{
    const DiffCase param = GetParam();
    const std::size_t n = param.n;
    onFarmLanes(param.threads, [&] {
        Rng rng(909 + n);
        // key(i): a permutation-ish indirection with some kNull holes.
        std::vector<std::uint64_t> key(n), val(n);
        for (std::size_t i = 0; i < n; ++i) {
            key[i] = rng.uniform(0, 4) == 0 ? otn::kNull
                                            : rng.uniform(0, n - 1);
            val[i] = rng.uniform(0, n - 1);
        }

        auto run = [&](simd::Backend backend, trace::Tracer &tr,
                       std::unique_ptr<OrthogonalTreesNetwork> &out) {
            out = std::make_unique<OrthogonalTreesNetwork>(
                n, logCost(n));
            auto &net = *out;
            net.setSimdBackend(backend);
            tr.setEnabled(true);
            net.setTracer(&tr);
            for (std::size_t i = 0; i < n; ++i) {
                net.reg(Reg::A, i, i) = key[i];
                net.reg(Reg::B, i, i) = val[i];
            }
            diagToRows(net, Reg::A, Reg::C);
            diagToCols(net, Reg::B, Reg::D);
            gatherAtIndex(net, Reg::C, Reg::D, Reg::E, Reg::T);
        };

        trace::Tracer ref_trace;
        std::unique_ptr<OrthogonalTreesNetwork> ref;
        run(simd::Backend::Scalar, ref_trace, ref);
        for (std::size_t i = 0; i < n; ++i) {
            std::uint64_t want =
                key[i] < n ? val[key[i]] : otn::kNull;
            EXPECT_EQ(ref->reg(Reg::E, i, i), want) << "gather @" << i;
        }

        for (simd::Backend backend : vectorBackends()) {
            SCOPED_TRACE(simd::toString(backend));
            trace::Tracer tr;
            std::unique_ptr<OrthogonalTreesNetwork> net;
            run(backend, tr, net);
            expectSameOtnState(*ref, *net);
            expectSameTrace(ref_trace, tr);
        }
    });
}

TEST_P(NetworkDifferential, SortOtc)
{
    const DiffCase param = GetParam();
    const std::size_t n = param.n;
    onFarmLanes(param.threads, [&] {
        Rng rng(1234 + n);
        std::vector<std::uint64_t> values(n);
        for (auto &v : values)
            v = rng.uniform(0, 4 * n);
        std::vector<std::uint64_t> expect = values;
        std::sort(expect.begin(), expect.end());
        CostModel cost(DelayModel::Logarithmic,
                       WordFormat::forProblemSize(4 * n + 1));

        auto run = [&](simd::Backend backend, trace::Tracer &tr) {
            otc::OtcNetwork net(n / 2, 4, cost);
            net.setSimdBackend(backend);
            tr.setEnabled(true);
            net.setTracer(&tr);
            auto r = otc::sortOtc(net, values);
            EXPECT_EQ(r.sorted, expect);
            return std::make_tuple(r.time, net.now(), net.acct().steps());
        };

        trace::Tracer ref_trace;
        auto ref = run(simd::Backend::Scalar, ref_trace);
        for (simd::Backend backend : vectorBackends()) {
            SCOPED_TRACE(simd::toString(backend));
            trace::Tracer tr;
            auto got = run(backend, tr);
            EXPECT_EQ(ref, got);
            expectSameTrace(ref_trace, tr);
        }
    });
}

TEST_P(NetworkDifferential, SortOnEmulatedOtn)
{
    const DiffCase param = GetParam();
    const std::size_t n = param.n;
    onFarmLanes(param.threads, [&] {
        Rng rng(4321 + n);
        std::vector<std::uint64_t> values(n);
        for (auto &v : values)
            v = rng.uniform(0, n - 1);
        std::vector<std::uint64_t> expect = values;
        std::sort(expect.begin(), expect.end());

        otc::OtcEmulatedOtn ref(n, logCost(n));
        ref.setSimdBackend(simd::Backend::Scalar);
        auto rs = sortOtn(ref, values);
        EXPECT_EQ(rs.sorted, expect);

        for (simd::Backend backend : vectorBackends()) {
            SCOPED_TRACE(simd::toString(backend));
            otc::OtcEmulatedOtn net(n, logCost(n));
            net.setSimdBackend(backend);
            auto rv = sortOtn(net, values);
            EXPECT_EQ(rv.sorted, expect);
            EXPECT_EQ(rs.time, rv.time);
            expectSameOtnState(ref, net);
        }
    });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NetworkDifferential,
    ::testing::Values(DiffCase{4, 1}, DiffCase{4, 8}, DiffCase{8, 1},
                      DiffCase{16, 8}, DiffCase{32, 1}, DiffCase{32, 8}),
    [](const ::testing::TestParamInfo<DiffCase> &info) {
        return "n" + std::to_string(info.param.n) + "t" +
               std::to_string(info.param.threads);
    });

// The acceptance-size run: registers, roots, clock and counters at
// N = 1024 (traces skipped — the stream is identical at every smaller
// size and the full event buffer would dominate the test's runtime).
TEST(NetworkDifferentialLarge, SortOtn1024)
{
    const std::size_t n = 1024;
    Rng rng(2026);
    std::vector<std::uint64_t> values(n);
    for (auto &v : values)
        v = rng.uniform(0, n - 1);
    std::vector<std::uint64_t> expect = values;
    std::sort(expect.begin(), expect.end());

    OrthogonalTreesNetwork ref(n, logCost(n));
    ref.setSimdBackend(simd::Backend::Scalar);
    auto rs = sortOtn(ref, values);
    EXPECT_EQ(rs.sorted, expect);

    for (simd::Backend backend : vectorBackends()) {
        SCOPED_TRACE(simd::toString(backend));
        OrthogonalTreesNetwork net(n, logCost(n));
        net.setSimdBackend(backend);
        auto rv = sortOtn(net, values);
        EXPECT_EQ(rv.sorted, expect);
        EXPECT_EQ(rs.time, rv.time);
        expectSameOtnState(ref, net);
    }
}

} // namespace
