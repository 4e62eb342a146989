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
#include <new>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "graph/generators.hh"
#include "graph/reference_algorithms.hh"
#include "linalg/reference.hh"
#include "otc/emulated_otn.hh"
#include "otc/network.hh"
#include "otc/sort.hh"
#include "otn/bitonic.hh"
#include "otn/connected_components.hh"
#include "otn/matmul.hh"
#include "otn/mst.hh"
#include "otn/network.hh"
#include "otn/patterns.hh"
#include "otn/sort.hh"
#include "sim/rng.hh"
#include "sim/thread_pool.hh"
#include "simd/backend.hh"
#include "simd/kernels.hh"
#include "simd/rank.hh"
#include "simd/regfile.hh"
#include "trace/export.hh"
#include "trace/tracer.hh"

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

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
    if (simd::backendAvailable(simd::Backend::Avx2))
        out.push_back(simd::Backend::Avx2);
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

constexpr std::size_t kHugeWords =
    simd::RegFile::kHugePage / sizeof(std::uint64_t);

/** Words from the start of one plane to the next. */
std::size_t
strideOf(const simd::RegFile &rf)
{
    return static_cast<std::size_t>(rf.plane(1) - rf.plane(0));
}

/** True iff the words between plane p's end and the next stride read
 *  zero (the padding no accessor hands out). */
bool
paddingIsZero(const simd::RegFile &rf, unsigned p)
{
    const std::uint64_t *lane = rf.plane(p);
    return std::all_of(lane + rf.planeSize(), lane + strideOf(rf),
                       [](std::uint64_t w) { return w == 0; });
}

TEST(RegFile, HugePlanesAreAlignedDisjointZeroAndPadded)
{
    // Just below, at and just above the huge-page threshold, and a
    // 32 MB plane (an N=2048 OTN's).
    for (std::size_t words :
         {kHugeWords - 1, kHugeWords, kHugeWords + 1, 16 * kHugeWords}) {
        SCOPED_TRACE(::testing::Message() << words << " words");
        simd::RegFile rf(3, words);
        const simd::RegFile &view = rf;
        const bool huge = words >= kHugeWords;
        const std::size_t align =
            huge ? simd::RegFile::kHugePage : simd::RegFile::kAlign;
        const std::size_t stride = strideOf(view);
        EXPECT_EQ(static_cast<std::size_t>(view.plane(2) - view.plane(1)),
                  stride);
        EXPECT_GE(stride, words);
        EXPECT_LT(stride - words, align / sizeof(std::uint64_t));
        EXPECT_EQ(stride % (align / sizeof(std::uint64_t)), 0u);
        for (unsigned p = 0; p < 3; ++p) {
            auto addr = reinterpret_cast<std::uintptr_t>(view.plane(p));
            EXPECT_EQ(addr % align, 0u) << "plane " << p;
            EXPECT_TRUE(planeIsZero(view, p)) << "plane " << p;
            EXPECT_TRUE(paddingIsZero(view, p)) << "plane " << p;
        }
        EXPECT_EQ(rf.dirtyMask(), 0u);

        // Both ends of planes 0 and 2: plane 1 and every padding stay
        // zero.
        for (unsigned p : {0u, 2u}) {
            rf.at(p, 0) = p + 1;
            rf.at(p, words - 1) = p + 11;
        }
        EXPECT_EQ(rf.dirtyMask(), (1u << 0) | (1u << 2));
        for (unsigned p : {0u, 2u}) {
            EXPECT_EQ(view.at(p, 0), p + 1);
            EXPECT_EQ(view.at(p, words - 1), p + 11);
        }
        EXPECT_TRUE(planeIsZero(view, 1));
        for (unsigned p = 0; p < 3; ++p)
            EXPECT_TRUE(paddingIsZero(view, p)) << "plane " << p;

        rf.clear();
        EXPECT_EQ(rf.dirtyMask(), 0u);
        for (unsigned p = 0; p < 3; ++p) {
            EXPECT_TRUE(planeIsZero(view, p)) << "plane " << p;
            EXPECT_TRUE(paddingIsZero(view, p)) << "plane " << p;
        }
        rf.at(1, words / 2) = 7;
        EXPECT_EQ(rf.dirtyMask(), 1u << 1);
        rf.clear();
        EXPECT_TRUE(planeIsZero(view, 1));
        EXPECT_TRUE(paddingIsZero(view, 1));
    }
}

TEST(RegFile, OverflowingSizesThrowBadAlloc)
{
    // 12 planes of SIZE_MAX / 16 words wrap the plane count product;
    // SIZE_MAX words wrap the stride rounding itself; SIZE_MAX / 8 - 1
    // words round up to 2^61 words, whose byte count wraps.
    EXPECT_THROW((void)simd::RegFile(12, SIZE_MAX / 16), std::bad_alloc);
    EXPECT_THROW((void)simd::RegFile(1, SIZE_MAX), std::bad_alloc);
    EXPECT_THROW((void)simd::RegFile(2, SIZE_MAX / 8 - 1), std::bad_alloc);
}

/** The candidate simd::CandidateRule `rule` defines at BP(i, j),
 *  written out: source word a, labels mine (row i) and theirs
 *  (column j). */
std::uint64_t
candidateDefinition(simd::CandidateRule rule, std::uint64_t a,
                    std::uint64_t mine, std::uint64_t theirs, std::size_t i,
                    std::size_t j)
{
    if (mine == theirs)
        return simd::kNullWord;
    if (rule.kind == simd::CandidateRule::Kind::Label)
        return a == 1 ? theirs : simd::kNullWord;
    if (a == simd::kNullWord)
        return simd::kNullWord;
    return a << (2 * rule.idxBits) | std::uint64_t{i} << rule.idxBits | j;
}

/**
 * Word (i, j, q) of a plane of `shape` on grid (k, l) with shape
 * vectors `v` (vec0 then vec1) or, Dense, own words `dense`: the
 * definitions of simd::Shape, written out word by word.  A Candidate
 * plane (L = 1) is taken on the Label rule with `dense` its source.
 */
std::uint64_t
shapeDefinition(simd::Shape shape, const std::vector<std::uint64_t> &v,
                const std::vector<std::uint64_t> &dense, std::size_t k,
                std::size_t l, std::size_t i, std::size_t j, std::size_t q)
{
    const std::size_t side = k * l, g = i * l + q;
    switch (shape) {
    case simd::Shape::Dense:
        return dense[(i * k + j) * l + q];
    case simd::Shape::RowConst:
        return v[g];
    case simd::Shape::ColConst:
        return v[j * l + q];
    case simd::Shape::RowOneHot:
        return v[g] == j ? v[side + g] : simd::kNullWord;
    case simd::Shape::RankCount: {
        std::uint64_t count = 0;
        for (std::size_t r = 0; r < l; ++r) {
            const std::size_t h = j * l + r;
            const std::uint64_t x = v[g], y = v[side + h];
            count += x > y || (x == y && g > h);
        }
        return count;
    }
    case simd::Shape::Candidate:
        return candidateDefinition({simd::CandidateRule::Kind::Label},
                                   dense[i * k + j], v[i], v[side + j], i, j);
    }
    return 0;
}

TEST(RegFile, ShapedReadsMatchTheMaterializedPlane)
{
    // Plane 0 is Dense and planes 1-4 carry the four tagged shapes, on
    // an N x N grid (L = 1, the OTN's) and on K = 4, L = 3 (the OTC's
    // kind: a row of 12 words, not a power of two); on the N x N grid
    // plane 5 is Candidate, derived from plane 0.  Every point, cell
    // and row read, taken before materializing, must equal the
    // definition and then the materialized plane.
    constexpr simd::Shape kTagged[] = {
        simd::Shape::RowConst, simd::Shape::ColConst,
        simd::Shape::RowOneHot, simd::Shape::RankCount};
    std::vector<simd::Backend> backends = vectorBackends();
    backends.push_back(simd::Backend::Scalar);
    for (simd::Grid grid : {simd::Grid{8, 1}, simd::Grid{4, 3}})
        for (simd::Backend backend : backends) {
            const std::size_t k = grid.k, l = grid.l, side = k * l;
            const std::size_t words = k * side;
            SCOPED_TRACE(::testing::Message()
                         << "K=" << k << " L=" << l << " "
                         << simd::toString(backend));
            const simd::KernelTable &kt = simd::kernelsFor(backend);
            Rng rng(613 + side);
            const unsigned planes = l == 1 ? 6 : 5;
            auto shapeOf = [&](unsigned p) {
                return p == 0   ? simd::Shape::Dense
                       : p == 5 ? simd::Shape::Candidate
                                : kTagged[p - 1];
            };
            simd::RegFile rf(planes, grid);
            ASSERT_EQ(rf.planeSize(), words);
            std::vector<std::uint64_t> dense(words);
            for (std::size_t w = 0; w < words; ++w)
                dense[w] = rf.at(0, w) = rng.uniform(0, 9);
            // Small values, so RankCount sees ties, and kNull padding;
            // RowOneHot's vec0 holds column indices, K meaning none.
            std::vector<std::vector<std::uint64_t>> vecs;
            for (unsigned s = 0; s < 4; ++s) {
                std::vector<std::uint64_t> v(2 * side);
                for (std::size_t w = 0; w < v.size(); ++w)
                    v[w] = rng.uniform(0, 5) == 0 ? simd::kNullWord
                           : kTagged[s] == simd::Shape::RowOneHot && w < side
                               ? rng.uniform(0, k)
                               : rng.uniform(0, 4);
                std::copy(v.begin(), v.end(), rf.tag(s + 1, kTagged[s]));
                vecs.push_back(v);
            }
            if (planes == 6) {
                std::vector<std::uint64_t> v(2 * side);
                for (std::uint64_t &w : v)
                    w = rng.uniform(0, 4);
                std::copy(v.begin(), v.end(),
                          rf.tagCandidate(5, 0,
                                          {simd::CandidateRule::Kind::Label}));
                vecs.push_back(v);
            }
            EXPECT_EQ(rf.dirtyMask(), 1u); // tagging dirties no plane

            std::vector<std::uint64_t> cell_buf(l), row_buf(side);
            for (unsigned p = 0; p < planes; ++p) {
                SCOPED_TRACE(::testing::Message() << "plane " << p);
                const simd::Shape shape = rf.shape(p);
                ASSERT_EQ(shape, shapeOf(p));
                const std::vector<std::uint64_t> &v =
                    p == 0 ? dense : vecs[p - 1];
                std::vector<std::uint64_t> points(words), cells(words),
                    rows(words);
                for (std::size_t i = 0; i < k; ++i) {
                    const std::uint64_t *row =
                        rf.row(p, i, row_buf.data(), kt);
                    std::copy(row, row + side, rows.begin() + i * side);
                    for (std::size_t j = 0; j < k; ++j) {
                        const std::uint64_t *c =
                            rf.cell(p, i, j, cell_buf.data());
                        std::copy(c, c + l,
                                  cells.begin() + rf.index(i, j, 0));
                        for (std::size_t q = 0; q < l; ++q) {
                            points[rf.index(i, j, q)] = rf.word(p, i, j, q);
                            ASSERT_EQ(points[rf.index(i, j, q)],
                                      shapeDefinition(shape, v, dense, k, l,
                                                      i, j, q))
                                << i << ',' << j << ',' << q;
                        }
                    }
                }
                const std::uint64_t count = rf.materializations();
                const std::uint32_t dirty = rf.dirtyMask();
                rf.makeDense(p, kt);
                EXPECT_EQ(rf.shape(p), simd::Shape::Dense);
                EXPECT_EQ(rf.materializations(), count + (p != 0));
                EXPECT_EQ(rf.dirtyMask(), dirty | (p != 0 ? 1u << p : 0u));
                const simd::RegFile &view = rf;
                const std::vector<std::uint64_t> plane(
                    view.plane(p), view.plane(p) + words);
                EXPECT_EQ(points, plane);
                EXPECT_EQ(cells, plane);
                EXPECT_EQ(rows, plane);
                rf.makeDense(p, kt); // already Dense: no second count
                EXPECT_EQ(rf.materializations(), count + (p != 0));
            }

            // Overwriting a tagged plane that is not an input retags it
            // without expanding it; one that is an input is expanded.
            for (unsigned s = 0; s < 4; ++s)
                std::copy(vecs[s].begin(), vecs[s].end(),
                          rf.tag(s + 1, kTagged[s]));
            const std::uint64_t count = rf.materializations();
            rf.overwrite(1, false, kt);
            EXPECT_EQ(rf.shape(1), simd::Shape::Dense);
            EXPECT_EQ(rf.materializations(), count);
            rf.overwrite(4, true, kt);
            EXPECT_EQ(rf.shape(4), simd::Shape::Dense);
            EXPECT_EQ(rf.materializations(), count + 1);

            // clear() resets every tag and zeroes what was written.
            rf.clear();
            EXPECT_EQ(rf.dirtyMask(), 0u);
            for (unsigned p = 0; p < planes; ++p) {
                EXPECT_EQ(rf.shape(p), simd::Shape::Dense) << "plane " << p;
                EXPECT_TRUE(planeIsZero(rf, p)) << "plane " << p;
            }
        }
}

TEST(RegFile, CandidateReadsFollowTheRuleAndTheCurrentSource)
{
    // Plane 0 is the source A, plane 1 the Candidate plane T.  On sides
    // that fill part of one mask word, exactly one, and more than one,
    // every point, cell and row read, the row minima and the expansion
    // of T must equal the rule written out over A's words.  Rewriting A
    // between two candidate steps must give the new A's candidates (a
    // kept presence mask would give the old edges), and a T still
    // tagged when A is written keeps the words it had.
    const simd::KernelTable &kt = simd::scalarKernels();
    const simd::CandidateRule rules[] = {
        {simd::CandidateRule::Kind::Label},
        {simd::CandidateRule::Kind::Edge, 8}};
    for (std::size_t k : {1, 5, 32, 64, 100, 130})
        for (simd::CandidateRule rule : rules) {
            const bool label = rule.kind == simd::CandidateRule::Kind::Label;
            SCOPED_TRACE(::testing::Message()
                         << "K=" << k << (label ? " label" : " edge"));
            Rng rng(877 + k);
            simd::RegFile rf(3, simd::Grid{k, 1});
            std::vector<std::uint64_t> a(k * k), labels(2 * k);
            auto writeSource = [&] {
                std::uint64_t *plane = rf.plane(0);
                for (std::uint64_t &w : a) {
                    const std::uint64_t edge = label ? 1 : rng.uniform(0, 20);
                    const std::uint64_t kinds[] = {edge, edge, simd::kNullWord,
                                                   label ? 0 : edge};
                    w = kinds[rng.uniform(0, 3)];
                }
                std::copy(a.begin(), a.end(), plane);
            };
            // One candidate step: T tagged on the current A, with new
            // labels (small, so that mine == theirs is common).
            auto step = [&] {
                for (std::uint64_t &l : labels)
                    l = rng.uniform(0, 3);
                std::copy(labels.begin(), labels.end(),
                          rf.tagCandidate(1, 0, rule));
            };
            auto expected = [&] {
                std::vector<std::uint64_t> t(k * k);
                for (std::size_t i = 0; i < k; ++i)
                    for (std::size_t j = 0; j < k; ++j)
                        t[i * k + j] =
                            candidateDefinition(rule, a[i * k + j], labels[i],
                                                labels[k + j], i, j);
                return t;
            };
            auto expectReads = [&] {
                const std::vector<std::uint64_t> t = expected();
                std::vector<std::uint64_t> row_buf(k), mins(k);
                std::uint64_t cell_buf = 0;
                rf.candidateRowMins(1, mins.data());
                for (std::size_t i = 0; i < k; ++i) {
                    const std::uint64_t *row =
                        rf.row(1, i, row_buf.data(), kt);
                    ASSERT_TRUE(std::equal(row, row + k, t.begin() + i * k))
                        << "row " << i;
                    const auto row_t = t.begin() + i * k;
                    EXPECT_EQ(mins[i], *std::min_element(row_t, row_t + k))
                        << "row " << i;
                    for (std::size_t j = 0; j < k; ++j) {
                        ASSERT_EQ(rf.word(1, i, j, 0), t[i * k + j])
                            << i << ',' << j;
                        ASSERT_EQ(*rf.cell(1, i, j, &cell_buf), t[i * k + j])
                            << i << ',' << j;
                    }
                }
            };

            writeSource();
            step();
            EXPECT_EQ(rf.shape(1), simd::Shape::Candidate);
            EXPECT_EQ(rf.dirtyMask(), 1u); // T is never handed out
            expectReads();
            step(); // the mask stays valid: A was not written
            expectReads();

            // A rewritten between two candidate steps: T, still tagged,
            // is expanded with its old words first.
            const std::vector<std::uint64_t> before = expected();
            writeSource();
            EXPECT_EQ(rf.shape(1), simd::Shape::Dense);
            EXPECT_EQ(rf.materializations(), 1u);
            const simd::RegFile &view = rf;
            EXPECT_TRUE(std::equal(before.begin(), before.end(),
                                   view.plane(1)));
            step();
            expectReads();

            // A rewritten while no plane is derived from it: the mask
            // must still follow A.
            rf.makeDense(1, kt);
            EXPECT_EQ(rf.materializations(), 2u);
            const std::vector<std::uint64_t> expanded = expected();
            EXPECT_TRUE(std::equal(expanded.begin(), expanded.end(),
                                   view.plane(1)));
            writeSource();
            EXPECT_EQ(rf.materializations(), 2u);
            step();
            expectReads();

            // clear() drops the mask with the planes.
            rf.clear();
            EXPECT_EQ(rf.shape(1), simd::Shape::Dense);
            writeSource();
            step();
            expectReads();
        }
}

#if defined(__linux__)
/** Resident pages of [p, p + bytes), p page-aligned, per mincore. */
std::size_t
residentPages(const void *p, std::size_t bytes)
{
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    std::vector<unsigned char> vec((bytes + page - 1) / page);
    EXPECT_EQ(::mincore(const_cast<void *>(p), bytes, vec.data()), 0);
    return static_cast<std::size_t>(std::count_if(
        vec.begin(), vec.end(), [](unsigned char c) { return c & 1; }));
}

TEST(RegFile, OneWrittenWordMakesAtMostOneHugePageResident)
{
    constexpr std::size_t kWords = std::size_t{4} << 20; // 32 MB planes
    simd::RegFile rf(12, kWords);
    rf.at(0, 12345) = 1;
    const simd::RegFile &view = rf;
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    const std::size_t bytes = kWords * sizeof(std::uint64_t);
    const std::size_t resident = residentPages(view.plane(0), bytes);
    EXPECT_GE(resident, 1u);
    EXPECT_LE(resident * page, simd::RegFile::kHugePage);
    for (unsigned p = 1; p < 12; ++p)
        EXPECT_EQ(residentPages(view.plane(p), bytes), 0u) << "plane " << p;
}
#endif

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

        // Elementwise base-op rows, and one row's contribution to the
        // column reductions (the accumulator starts from a mixed row).
        sc.addSatRow(s.data(), a.data(), b.data(), n);
        vec.addSatRow(v.data(), a.data(), b.data(), n);
        EXPECT_EQ(s, v) << "addSatRow";
        // Scalar-times-row kernels on a row of absent words, zeros,
        // small words and words at or above 2^32, with scalars of each
        // kind: products of two wide words wrap mod 2^64, and a
        // scalar below 2^32 takes the vector views' narrow multiply.
        std::vector<std::uint64_t> row(n);
        for (std::size_t j = 0; j < n; ++j) {
            const std::uint64_t kinds[] = {
                simd::kNullWord, 0, j + 1, a[j],
                (std::uint64_t{1} << 32) + j, ~std::uint64_t{0} - j - 1};
            row[j] = kinds[j % std::size(kinds)];
        }
        for (std::uint64_t x :
             {simd::kNullWord, std::uint64_t{0}, std::uint64_t{1},
              std::uint64_t{9}, (std::uint64_t{1} << 32) - 1,
              std::uint64_t{1} << 32, std::uint64_t{0x9e3779b97f4a7c15},
              ~std::uint64_t{0} - 1}) {
            SCOPED_TRACE(::testing::Message() << "scalar " << x);
            for (auto fn : {&simd::KernelTable::mulAccumRow,
                            &simd::KernelTable::andAccumRow}) {
                std::vector<std::uint64_t> sacc = b, vacc = b;
                s.assign(n, 5);
                v.assign(n, 5);
                (sc.*fn)(sacc.data(), s.data(), x, row.data(), n);
                (vec.*fn)(vacc.data(), v.data(), x, row.data(), n);
                EXPECT_EQ(s, v) << "product row kernel out";
                EXPECT_EQ(sacc, vacc) << "product row kernel acc";
            }
        }
        for (auto fn : {&simd::KernelTable::accumSumRow,
                        &simd::KernelTable::accumMinRow}) {
            s = b;
            v = b;
            (sc.*fn)(s.data(), a.data(), n);
            (vec.*fn)(v.data(), a.data(), n);
            EXPECT_EQ(s, v) << "accumulating row kernel";
        }
        s = b;
        v = b;
        sc.accumMinEqIndexRow(s.data(), key.data(), a.data(), n);
        vec.accumMinEqIndexRow(v.data(), key.data(), a.data(), n);
        EXPECT_EQ(s, v) << "accumMinEqIndexRow";

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

/** Operand classes of the tile kernels' exactness rule. */
enum class TileWords { Narrow, Mixed, Wide };

/**
 * A rows x cols block with row stride ld: words up to 2^32 - 1
 * (Narrow; zeros, small words and words at the top of the range, so
 * products and sums wrap), Narrow plus one word equal to 2^32 at
 * (wide_i, wide_j) (Mixed; it must take the full multiply), or words
 * anywhere below 2^64 (Wide).  With `nulls`, one word in three is
 * kNullWord.  The stride padding holds wide words that a kernel must
 * not read.
 */
std::vector<std::uint64_t>
tileOperand(Rng &rng, std::size_t rows, std::size_t cols, std::size_t ld,
            TileWords kind, bool nulls, std::size_t wide_i,
            std::size_t wide_j)
{
    const std::uint64_t top = (std::uint64_t{1} << 32) - 1;
    std::vector<std::uint64_t> m(rows * ld);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < ld; ++j) {
            std::uint64_t &w = m[i * ld + j];
            if (j >= cols) {
                w = ~std::uint64_t{0} - rng.uniform(0, 1u << 20);
                continue;
            }
            const std::uint64_t narrow[] = {0, rng.uniform(1, 9),
                                            top - rng.uniform(0, 3),
                                            rng.uniform(0, top)};
            w = kind == TileWords::Wide
                    ? rng.uniform(0, ~std::uint64_t{0} - 1)
                    : narrow[rng.uniform(0, std::size(narrow) - 1)];
            if (nulls && rng.uniform(0, 2) == 0)
                w = simd::kNullWord;
        }
    if (kind == TileWords::Mixed)
        m[wide_i * ld + wide_j] = std::uint64_t{1} << 32;
    return m;
}

/**
 * macTile and macTileAbsent on every table in `tables`, against a
 * triple loop, for one rows x inner x cols shape with padded row
 * strides.  The 2^32 word of a Mixed pair sits in a when rows is
 * even, in b when it is odd.
 */
void
checkTileKernels(const std::vector<const simd::KernelTable *> &tables,
                 Rng &rng, std::size_t rows, std::size_t inner,
                 std::size_t cols, TileWords kind, bool nulls)
{
    const std::size_t lda = inner + 3, ldb = cols + 2, ldc = cols + 1;
    const bool in_a = rows % 2 == 0;
    const TileWords other =
        kind == TileWords::Mixed ? TileWords::Narrow : kind;
    const auto a = tileOperand(rng, rows, inner, lda, in_a ? kind : other,
                               nulls, rows - 1, inner / 2);
    const auto b = tileOperand(rng, inner, cols, ldb, in_a ? other : kind,
                               nulls, inner / 2, cols - 1);
    const auto c0 = randomWords(rng, rows * ldc, ~std::uint64_t{0} - 1);

    // macTile multiplies kNullWord like any word; macTileAbsent skips
    // every term with an absent word.
    for (bool absent : {false, true}) {
        std::vector<std::uint64_t> expect = c0;
        for (std::size_t i = 0; i < rows; ++i)
            for (std::size_t j = 0; j < cols; ++j)
                for (std::size_t k = 0; k < inner; ++k) {
                    const std::uint64_t x = a[i * lda + k];
                    const std::uint64_t y = b[k * ldb + j];
                    if (!absent ||
                        (x != simd::kNullWord && y != simd::kNullWord))
                        expect[i * ldc + j] += x * y;
                }
        for (const simd::KernelTable *kt : tables) {
            const simd::MacTileFn fn =
                absent ? kt->macTileAbsent : kt->macTile;
            std::vector<std::uint64_t> c = c0;
            fn(c.data(), ldc, a.data(), lda, b.data(), ldb, rows, inner,
               cols);
            EXPECT_EQ(c, expect)
                << (absent ? "macTileAbsent" : "macTile") << " on the "
                << (kt == tables[0] ? "scalar" : "vector") << " table";
        }
    }
}

TEST(KernelDifferential, TileKernelsMatchScalarAndATripleLoop)
{
    std::vector<const simd::KernelTable *> tables = {&simd::scalarKernels()};
    for (simd::Backend backend : vectorBackends())
        tables.push_back(&simd::kernelsFor(backend));

    // Row counts off the 4-row tile and column counts off the
    // two-vector (and one-vector) tile.
    Rng rng(2718);
    for (std::size_t rows : {1, 2, 3, 4, 5, 13, 33})
        for (std::size_t cols : {1, 2, 7, 8, 12, 19, 30})
            for (TileWords kind :
                 {TileWords::Narrow, TileWords::Mixed, TileWords::Wide})
                for (bool nulls : {false, true}) {
                    const std::size_t inner = (rows * cols) % 17 + 1;
                    SCOPED_TRACE(::testing::Message()
                                 << rows << "x" << inner << "x" << cols
                                 << " kind " << static_cast<int>(kind)
                                 << (nulls ? " with" : " without")
                                 << " absent words");
                    checkTileKernels(tables, rng, rows, inner, cols, kind,
                                     nulls);
                }
}

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
// Enumeration-sort ranks (simd::rankCounts)
// ----------------------------------------------------------------------

/** #{j : (b[j], j) < (a[i], i)} for every i, one pair at a time. */
std::vector<std::uint64_t>
naiveRanks(const std::vector<std::uint64_t> &a,
           const std::vector<std::uint64_t> &b)
{
    std::vector<std::uint64_t> rank(a.size(), 0);
    for (std::size_t i = 0; i < a.size(); ++i)
        for (std::size_t j = 0; j < b.size(); ++j)
            rank[i] += a[i] > b[j] || (a[i] == b[j] && i > j) ? 1 : 0;
    return rank;
}

TEST(RankCounts, MatchesANaiveDoubleLoop)
{
    constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
    Rng rng(4711);
    for (std::size_t n : {0, 1, 2, 3, 64, 2816}) {
        std::vector<std::uint64_t> ties(n), descending(n), nulls(n),
            near_half(n), spread(n);
        for (std::size_t j = 0; j < n; ++j) {
            ties[j] = rng.uniform(0, 3);
            descending[j] = n - j;
            nulls[j] = j % 3 == 0 ? simd::kNullWord : rng.uniform(0, 9);
            // Straddles 2^63: the top byte varies, nothing in between.
            near_half[j] = kHalf - 2 + rng.uniform(0, 4);
            // One low-byte and one high-byte difference (two passes,
            // six skipped).
            spread[j] = (rng.uniform(0, 1) << 56) | rng.uniform(0, 255);
        }
        const std::pair<const char *, std::vector<std::uint64_t>> inputs[] =
            {{"random", randomWords(rng, n, ~std::uint64_t{0} - 1)},
             {"ties", ties},
             {"all-equal", std::vector<std::uint64_t>(n, 5)},
             {"all-null", std::vector<std::uint64_t>(n, simd::kNullWord)},
             {"descending", descending},
             {"kNull", nulls},
             {"near 2^63", near_half},
             {"spread", spread}};
        std::vector<std::uint64_t> got(n);
        for (const auto &[what, a] : inputs) {
            // a == b (the sorts' case, ranks a permutation), then a
            // against every other input.
            got.assign(n, ~std::uint64_t{0});
            simd::rankCounts(got.data(), a.data(), a.data(), n);
            ASSERT_EQ(got, naiveRanks(a, a)) << what << " n=" << n;
            std::vector<std::uint64_t> perm = got;
            std::sort(perm.begin(), perm.end());
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(perm[i], i) << what << " n=" << n;
            for (const auto &[other, b] : inputs) {
                got.assign(n, ~std::uint64_t{0});
                simd::rankCounts(got.data(), a.data(), b.data(), n);
                ASSERT_EQ(got, naiveRanks(a, b))
                    << what << " against " << other << " n=" << n;
            }
        }
    }
}

TEST(RankCounts, OtnBatchCountsEqualTheirRowReads)
{
    // SORT-OTN's step 4 counts a RankCount plane with rankCounts; its
    // row reads go through cmpRankRow (readRow, via countLeafToRoot)
    // and a scalar point count (the const reg()), never the radix
    // order.  Each batch count must equal both sums of its row.
    Rng rng(2024);
    for (std::size_t n : {1, 2, 8, 64, 256}) {
        std::vector<std::uint64_t> x(n), y(n), partial(n - n / 3);
        for (auto &w : x)
            w = rng.uniform(0, n / 3);
        for (auto &w : y)
            w = rng.uniform(0, n);
        for (auto &w : partial)
            w = rng.uniform(0, n / 3);
        // Row words a, column words b: a == b (SORT-OTN), a != b, and
        // a partial load padded with kNull on one side.
        const std::pair<std::vector<std::uint64_t>,
                        std::vector<std::uint64_t>>
            cases[] = {{x, x}, {x, y}, {partial, y}, {y, partial}};
        for (const auto &[a, b] : cases) {
            SCOPED_TRACE(::testing::Message()
                         << "N=" << n << " a=" << a.size()
                         << " b=" << b.size());
            OrthogonalTreesNetwork net(n, logCost(n));
            net.setRowRootInputs(b);
            net.batchRowBroadcast(Reg::C);
            net.batchDiagToCols(Reg::C, Reg::B);
            net.setRowRootInputs(a);
            net.batchRowBroadcast(Reg::A);
            net.batchCompareRank(Reg::A, Reg::B, Reg::F);
            ASSERT_EQ(net.regShape(Reg::F), simd::Shape::RankCount);
            net.batchCountRowsToLeaves(Reg::F, Reg::R);
            const OrthogonalTreesNetwork &view = net;
            for (std::size_t i = 0; i < n; ++i) {
                std::uint64_t point = 0;
                for (std::size_t j = 0; j < n; ++j)
                    point += view.reg(Reg::F, i, j);
                net.countLeafToRoot(otn::Axis::Row, i, Reg::F);
                ASSERT_EQ(view.reg(Reg::R, i, 0), point) << "row " << i;
                ASSERT_EQ(view.reg(Reg::R, i, 0), net.rowRoot(i))
                    << "row " << i;
            }
            EXPECT_EQ(net.dirtyMask(), 0u);
        }
    }
}

TEST(RankCounts, OtcRanksEqualTheirCycleReads)
{
    // SORT-OTC's step 4 takes R from rankCounts; the RankCount plane C
    // is read through readCycle (sumCycleToRoot) and the const reg(),
    // both of which count one cycle's L words at a time.  The ranks
    // must equal the row sums of C, with and without kNull padding.
    Rng rng(77);
    const std::tuple<std::size_t, unsigned, std::size_t> shapes[] = {
        {4, 3, 12}, {4, 3, 10}, {8, 4, 32}, {256, 11, 2048}};
    for (const auto &[k, l, m] : shapes) {
        SCOPED_TRACE(::testing::Message()
                     << "K=" << k << " L=" << l << " m=" << m);
        std::vector<std::uint64_t> v(m);
        for (auto &w : v)
            w = rng.uniform(0, m / 4);
        otc::OtcNetwork net(k, l, logCost(k * l));
        const auto sorted = otc::sortOtc(net, v).sorted;
        EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
        ASSERT_EQ(net.regShape(Reg::C), simd::Shape::RankCount);
        const otc::OtcNetwork &view = net;
        for (std::size_t i = 0; i < k; ++i) {
            net.sumCycleToRoot(otc::Axis::Row, i, otc::CSel::all(), Reg::C);
            for (std::size_t q = 0; q < l; ++q) {
                std::uint64_t point = 0;
                for (std::size_t j = 0; j < k; ++j)
                    point += view.reg(Reg::C, i, j, q);
                const std::uint64_t rank = view.reg(Reg::R, i, 0, q);
                ASSERT_EQ(rank, point) << "i=" << i << " q=" << q;
                ASSERT_EQ(rank, net.rowStream(i)[q])
                    << "i=" << i << " q=" << q;
            }
        }
        EXPECT_EQ(net.dirtyMask(), 0u);
        EXPECT_EQ(net.materializations(), 0u);

        // A RankCount plane of two different vectors, one of them
        // padded with kNull.
        const std::size_t capacity = k * l;
        std::uint64_t *vecs = net.tagPlane(Reg::D, simd::Shape::RankCount);
        for (std::size_t g = 0; g < capacity; ++g) {
            vecs[g] = g < m ? rng.uniform(0, m / 4) : otc::kNull;
            vecs[capacity + g] = rng.uniform(0, m / 4);
        }
        std::vector<std::uint64_t> ranks(capacity);
        simd::rankCounts(ranks.data(), vecs, vecs + capacity, capacity);
        for (std::size_t i = 0; i < k; ++i) {
            net.sumCycleToRoot(otc::Axis::Row, i, otc::CSel::all(), Reg::D);
            for (std::size_t q = 0; q < l; ++q)
                ASSERT_EQ(ranks[i * l + q], net.rowStream(i)[q])
                    << "i=" << i << " q=" << q;
        }
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
    // Neon is a name with no kernel table on any architecture.
    EXPECT_FALSE(simd::backendCompiled(simd::Backend::Neon));
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

// ----------------------------------------------------------------------
// Batch primitives against their written-out per-tree pardos
// ----------------------------------------------------------------------

using otn::Axis;
using otn::Sel;
using NetOp = std::function<void(OrthogonalTreesNetwork &)>;

/** One batch primitive and the per-tree formulation it stands for. */
struct BatchCase
{
    const char *name;
    NetOp batch;
    NetOp perTree;
    /** Registers the batch form reads or writes (the shape test tags
     *  each of them in every shape). */
    std::vector<Reg> regs;
    /** A key register with leafToRoot's at-most-one-match-per-column
     *  precondition, if the primitive has one. */
    std::optional<Reg> uniqueKey = std::nullopt;
};

using BinaryOp = std::uint64_t (*)(std::uint64_t, std::uint64_t);

/** Absent operands contribute nothing (matmul's product). */
std::uint64_t
mulOrZero(std::uint64_t a, std::uint64_t b)
{
    return (a == otn::kNull || b == otn::kNull) ? 0 : a * b;
}

std::uint64_t
andOrZero(std::uint64_t a, std::uint64_t b)
{
    return (a == otn::kNull || b == otn::kNull) ? 0 : (a && b) ? 1 : 0;
}

/** Saturating add (shortest paths' relaxation). */
std::uint64_t
addOrNull(std::uint64_t a, std::uint64_t b)
{
    return (a == otn::kNull || b == otn::kNull) ? otn::kNull : a + b;
}

std::vector<BatchCase>
batchCases()
{
    auto pardo = [](OrthogonalTreesNetwork &net,
                    const std::function<void(std::size_t)> &body) {
        net.parallelFor(net.n(), body);
    };
    auto base = [](OrthogonalTreesNetwork &net, BinaryOp op) {
        net.baseOp(net.cost().bitSerialOp(),
                   [&](std::size_t i, std::size_t j) {
                       net.reg(Reg::C, i, j) =
                           op(net.reg(Reg::A, i, j), net.reg(Reg::B, i, j));
                   });
    };
    auto rowsOp = [](OrthogonalTreesNetwork &net, simd::BinaryRowFn fn) {
        net.baseOpRows(net.cost().bitSerialOp(), fn, Reg::A, Reg::B,
                       Reg::C);
    };
    // One vector-matrix product step as vecMatBody takes it: the row
    // broadcast of A, then C := A op B and the column sums of C.
    auto product = [](OrthogonalTreesNetwork &net, bool boolean) {
        net.batchRowBroadcast(Reg::A);
        net.batchProductColSum(boolean ? 1 : net.cost().bitSerialMultiply(),
                               boolean, Reg::A, Reg::B, Reg::C);
    };
    // CONNECT's or MST's steps (1)-(3): the labels D fanned out along
    // the rows (B) and down the columns (C), the candidate step into T
    // and its row minima fanned along the rows into E.  B, C and E are
    // only written, so their input shapes do not matter.
    auto candidates = [](OrthogonalTreesNetwork &net, bool mst) {
        net.batchDiagToRows(Reg::D, Reg::B);
        net.batchDiagToCols(Reg::D, Reg::C);
        if (mst)
            otn::mstCandidatesOtn(net, vlsi::logCeilAtLeast1(net.n()));
        else
            otn::connectCandidatesOtn(net);
        net.batchMinRowsToLeaves(Reg::T, Sel::all(), Reg::E);
    };
    auto candidatesPardo = [=](OrthogonalTreesNetwork &net, bool mst) {
        pardo(net, [&](std::size_t i) {
            net.leafToLeaf(Axis::Row, i, Sel::diag(), Reg::D, Sel::all(),
                           Reg::B);
        });
        pardo(net, [&](std::size_t j) {
            net.leafToLeaf(Axis::Col, j, Sel::diag(), Reg::D, Sel::all(),
                           Reg::C);
        });
        const unsigned bits = vlsi::logCeilAtLeast1(net.n());
        net.baseOp(net.cost().bitSerialOp(),
                   [&](std::size_t i, std::size_t j) {
                       const std::uint64_t a = net.reg(Reg::A, i, j);
                       const std::uint64_t mine = net.reg(Reg::B, i, j);
                       const std::uint64_t theirs = net.reg(Reg::C, i, j);
                       std::uint64_t t = otn::kNull;
                       if (mine != theirs && !mst && a == 1)
                           t = theirs;
                       if (mine != theirs && mst && a != otn::kNull)
                           t = a << (2 * bits) | i << bits | j;
                       net.reg(Reg::T, i, j) = t;
                   });
        pardo(net, [&](std::size_t i) {
            net.minLeafToRoot(Axis::Row, i, Sel::all(), Reg::T);
            net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::E);
        });
    };
    auto productPardo = [=](OrthogonalTreesNetwork &net, bool boolean) {
        pardo(net, [&](std::size_t i) {
            net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::A);
        });
        const BinaryOp op = boolean ? andOrZero : mulOrZero;
        net.baseOp(boolean ? 1 : net.cost().bitSerialMultiply(),
                   [&](std::size_t i, std::size_t j) {
                       net.reg(Reg::C, i, j) =
                           op(net.reg(Reg::A, i, j), net.reg(Reg::B, i, j));
                   });
        pardo(net, [&](std::size_t j) {
            net.sumLeafToRoot(Axis::Col, j, Sel::all(), Reg::C);
        });
    };
    return {
        {"batchRowBroadcast",
         [](auto &net) { net.batchRowBroadcast(Reg::A); },
         [=](auto &net) {
             pardo(net, [&](std::size_t i) {
                 net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::A);
             });
         },
         {Reg::A}},
        {"batchColMin", [](auto &net) { net.batchColMin(Reg::C); },
         [=](auto &net) {
             pardo(net, [&](std::size_t j) {
                 net.minLeafToRoot(Axis::Col, j, Sel::all(), Reg::C);
             });
         },
         {Reg::C}},
        {"batchMinColsByKeyIndexToLeaves(all)",
         [](auto &net) {
             net.batchMinColsByKeyIndexToLeaves(Reg::B, Reg::E, Sel::all(),
                                                Reg::H);
         },
         [=](auto &net) {
             pardo(net, [&](std::size_t j) {
                 net.minLeafToRoot(Axis::Col, j, Sel::regEq(Reg::B, j),
                                   Reg::E);
                 net.rootToLeaf(Axis::Col, j, Sel::all(), Reg::H);
             });
         },
         {Reg::B, Reg::E, Reg::H}},
        {"batchMinColsByKeyIndexToLeaves(diag)",
         [](auto &net) {
             net.batchMinColsByKeyIndexToLeaves(Reg::B, Reg::E,
                                                Sel::diag(), Reg::H);
         },
         [=](auto &net) {
             pardo(net, [&](std::size_t j) {
                 net.minLeafToRoot(Axis::Col, j, Sel::regEq(Reg::B, j),
                                   Reg::E);
                 net.rootToLeaf(Axis::Col, j, Sel::diag(), Reg::H);
             });
         },
         {Reg::B, Reg::E, Reg::H}},
        {"batchMinRowsToLeaves(all)",
         [](auto &net) {
             net.batchMinRowsToLeaves(Reg::T, Sel::all(), Reg::E);
         },
         [=](auto &net) {
             pardo(net, [&](std::size_t i) {
                 net.minLeafToRoot(Axis::Row, i, Sel::all(), Reg::T);
                 net.rootToLeaf(Axis::Row, i, Sel::all(), Reg::E);
             });
         },
         {Reg::T, Reg::E}},
        {"batchMinRowsToLeaves(diag)",
         [](auto &net) {
             net.batchMinRowsToLeaves(Reg::T, Sel::diag(), Reg::E);
         },
         [=](auto &net) {
             pardo(net, [&](std::size_t i) {
                 net.minLeafToRoot(Axis::Row, i, Sel::all(), Reg::T);
                 net.rootToLeaf(Axis::Row, i, Sel::diag(), Reg::E);
             });
         },
         {Reg::T, Reg::E}},
        {"batchMinRowsToLeaves(connect candidates)",
         [=](auto &net) { candidates(net, false); },
         [=](auto &net) { candidatesPardo(net, false); },
         {Reg::A, Reg::D, Reg::T}},
        {"batchMinRowsToLeaves(mst candidates)",
         [=](auto &net) { candidates(net, true); },
         [=](auto &net) { candidatesPardo(net, true); },
         {Reg::A, Reg::D, Reg::T}},
        {"batchDiagToRows",
         [](auto &net) { net.batchDiagToRows(Reg::D, Reg::X); },
         [=](auto &net) {
             pardo(net, [&](std::size_t i) {
                 net.leafToLeaf(Axis::Row, i, Sel::diag(), Reg::D,
                                Sel::all(), Reg::X);
             });
         },
         {Reg::D, Reg::X}},
        {"batchDiagToCols",
         [](auto &net) { net.batchDiagToCols(Reg::D, Reg::X); },
         [=](auto &net) {
             pardo(net, [&](std::size_t j) {
                 net.leafToLeaf(Axis::Col, j, Sel::diag(), Reg::D,
                                Sel::all(), Reg::X);
             });
         },
         {Reg::D, Reg::X}},
        {"batchCountRowsToLeaves",
         [](auto &net) { net.batchCountRowsToLeaves(Reg::F, Reg::Y); },
         [=](auto &net) {
             pardo(net, [&](std::size_t i) {
                 net.countLeafToLeaf(Axis::Row, i, Reg::F, Sel::all(),
                                     Reg::Y);
             });
         },
         {Reg::F, Reg::Y}},
        {"batchPickColByKeyIndex",
         [](auto &net) { net.batchPickColByKeyIndex(Reg::R, Reg::G); },
         [=](auto &net) {
             pardo(net, [&](std::size_t j) {
                 net.leafToRoot(Axis::Col, j, Sel::regEq(Reg::R, j),
                                Reg::G);
             });
         },
         {Reg::R, Reg::G}, Reg::R},
        {"batchProductColSum(mul)", [=](auto &net) { product(net, false); },
         [=](auto &net) { productPardo(net, false); },
         {Reg::A, Reg::B, Reg::C}},
        {"batchProductColSum(and)", [=](auto &net) { product(net, true); },
         [=](auto &net) { productPardo(net, true); },
         {Reg::A, Reg::B, Reg::C}},
        {"baseOpRows(addSatRow)",
         [=](auto &net) { rowsOp(net, net.kernelTable().addSatRow); },
         [=](auto &net) { base(net, addOrNull); },
         {Reg::A, Reg::B, Reg::C}},
        {"baseOpDiag",
         [](auto &net) {
             net.baseOpDiag(net.cost().bitSerialOp(), [&](std::size_t i) {
                 net.reg(Reg::G, i, i) = net.reg(Reg::H, i, i) + i;
             });
         },
         [](auto &net) {
             net.baseOp(net.cost().bitSerialOp(),
                        [&](std::size_t i, std::size_t j) {
                            if (i == j)
                                net.reg(Reg::G, i, j) =
                                    net.reg(Reg::H, i, j) + i;
                        });
         },
         {Reg::G, Reg::H}},
        {"batchCompareRank",
         [](auto &net) { net.batchCompareRank(Reg::A, Reg::B, Reg::F); },
         [](auto &net) {
             net.baseOp(net.cost().bitSerialOp(),
                        [&](std::size_t i, std::size_t j) {
                            std::uint64_t a = net.reg(Reg::A, i, j);
                            std::uint64_t b = net.reg(Reg::B, i, j);
                            net.reg(Reg::F, i, j) =
                                (a > b || (a == b && i > j)) ? 1 : 0;
                        });
         },
         {Reg::A, Reg::B, Reg::F}},
        {"batchSelectValAtKeyIndex",
         [](auto &net) {
             net.batchSelectValAtKeyIndex(Reg::B, Reg::A, Reg::T);
         },
         [](auto &net) {
             net.baseOp(net.cost().bitSerialOp(),
                        [&](std::size_t i, std::size_t j) {
                            net.reg(Reg::T, i, j) =
                                net.reg(Reg::B, i, j) == j
                                    ? net.reg(Reg::A, i, j)
                                    : otn::kNull;
                        });
         },
         {Reg::B, Reg::A, Reg::T}},
    };
}

/**
 * Deterministic register contents: small words (so keys often equal
 * their column index and the Boolean ops see zeros), some kNull, and
 * in R a key with at most one match per column (leafToRoot's
 * uniqueness precondition).
 */
void
seedRegisters(OrthogonalTreesNetwork &net, std::uint64_t seed)
{
    const std::size_t n = net.n();
    Rng rng(seed);
    for (unsigned r = 0; r < otn::kNumRegs; ++r)
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                net.reg(static_cast<Reg>(r), i, j) =
                    rng.uniform(0, 7) == 0 ? otn::kNull
                                           : rng.uniform(0, n);
    for (std::size_t j = 0; j < n; ++j) {
        const std::size_t owner = rng.uniform(0, n); // n: no owner
        for (std::size_t i = 0; i < n; ++i)
            net.reg(Reg::R, i, j) = i == owner ? j : j + 1;
    }
    for (std::size_t i = 0; i < n; ++i) {
        net.rowRoot(i) = rng.uniform(0, n);
        net.colRoot(i) = rng.uniform(0, n);
    }
}

/** Where a case runs: the contexts a batch primitive is called from. */
enum class Context { TopLevel, Uncharged, NestedPardo };

/** Run `op` in `ctx`, after some model time has passed. */
void
runIn(Context ctx, OrthogonalTreesNetwork &net, const NetOp &op)
{
    net.charge(5);
    switch (ctx) {
    case Context::TopLevel:
        op(net);
        break;
    case Context::Uncharged:
        net.runUncharged([&] { op(net); });
        break;
    case Context::NestedPardo:
        // Two levels of enclosing chains of unequal length: the outer
        // one moves the trace base, the inner one the chain offset,
        // and the longest chain sets the charged cost.
        net.parallelFor(2, [&](std::size_t k) {
            net.charge(3 * (k + 1));
            net.parallelFor(3, [&](std::size_t m) {
                net.charge(7 * (3 - m));
                op(net);
            });
        });
        break;
    }
}

std::unique_ptr<OrthogonalTreesNetwork>
makeNet(bool emulated, std::size_t n)
{
    if (emulated)
        return std::make_unique<otc::OtcEmulatedOtn>(n, logCost(n));
    return std::make_unique<OrthogonalTreesNetwork>(n, logCost(n));
}

/**
 * Case `c` on two identically seeded, traced networks — the per-tree
 * pardo on one, the batch primitive on the other — in context `ctx`:
 * registers, roots, clock, counters and traces must match.
 */
void
expectBatchMatchesPardo(const BatchCase &c, std::size_t n, bool emulated,
                        Context ctx, simd::Backend backend)
{
    trace::Tracer ref_trace, tr;
    auto ref = makeNet(emulated, n);
    auto net = makeNet(emulated, n);
    auto prepare = [&](OrthogonalTreesNetwork &m, trace::Tracer &t) {
        m.setSimdBackend(backend);
        t.setEnabled(true);
        m.setTracer(&t);
        seedRegisters(m, 77 + n);
    };
    prepare(*ref, ref_trace);
    prepare(*net, tr);
    runIn(ctx, *ref, c.perTree);
    runIn(ctx, *net, c.batch);
    expectSameOtnState(*ref, *net);
    expectSameTrace(ref_trace, tr);
}

TEST(BatchVsPerTree, EveryBatchPrimitiveMatchesItsPardo)
{
    std::vector<simd::Backend> backends = vectorBackends();
    backends.push_back(simd::Backend::Scalar);
    const Context contexts[] = {Context::TopLevel, Context::Uncharged,
                                Context::NestedPardo};
    for (const BatchCase &c : batchCases())
        for (std::size_t n : {1, 2, 4, 16})
            for (bool emulated : {false, true})
                for (Context ctx : contexts)
                    for (simd::Backend backend : backends) {
                        SCOPED_TRACE(::testing::Message()
                                     << c.name << " n=" << n
                                     << " emulated=" << emulated
                                     << " context=" << static_cast<int>(ctx)
                                     << " " << simd::toString(backend));
                        expectBatchMatchesPardo(c, n, emulated, ctx,
                                                backend);
                    }
}

// ----------------------------------------------------------------------
// Broadcast planes: batch primitives on tagged inputs
// ----------------------------------------------------------------------

constexpr simd::Shape kShapes[] = {
    simd::Shape::Dense,     simd::Shape::RowConst,  simd::Shape::ColConst,
    simd::Shape::RowOneHot, simd::Shape::RankCount, simd::Shape::Candidate};

/**
 * Leave register r in `shape` through the producers that make it:
 * RowConst and ColConst fan r's diagonal out (diagToRows/Cols),
 * RowOneHot is the gather scratch selectValAtKeyIndex leaves for a
 * RowConst key (r's diagonal, fanned into `scratch`), and RankCount
 * is the rank compare of r's diagonal fanned along the rows (into
 * `scratch`) with it fanned down the columns (into `scratch2`), as in
 * SORT-OTN.  Candidate is CONNECT's candidate step on the edges of
 * `source` (left as seeded) with those two fan-outs as the labels.
 * Dense leaves r as seeded.
 */
void
shapeAs(OrthogonalTreesNetwork &net, Reg r, simd::Shape shape, Reg scratch,
        Reg scratch2, Reg source)
{
    switch (shape) {
    case simd::Shape::Dense:
        break;
    case simd::Shape::RowConst:
        net.batchDiagToRows(r, r);
        break;
    case simd::Shape::ColConst:
        net.batchDiagToCols(r, r);
        break;
    case simd::Shape::RowOneHot:
        net.batchDiagToRows(r, scratch);
        net.batchSelectValAtKeyIndex(scratch, r, r);
        break;
    case simd::Shape::RankCount:
        net.batchDiagToRows(r, scratch);
        net.batchDiagToCols(r, scratch2);
        net.batchCompareRank(scratch, scratch2, r);
        break;
    case simd::Shape::Candidate:
        net.batchDiagToRows(r, scratch);
        net.batchDiagToCols(r, scratch2);
        net.batchCandidates({simd::CandidateRule::Kind::Label}, source,
                            scratch, scratch2, r);
        break;
    }
    ASSERT_EQ(net.regShape(r), shape);
}

/** At most one BP per column j holds key == j (leafToRoot's rule). */
bool
keyIsUnique(const OrthogonalTreesNetwork &net, Reg key)
{
    for (std::size_t j = 0; j < net.n(); ++j) {
        unsigned matches = 0;
        for (std::size_t i = 0; i < net.n(); ++i)
            matches += net.reg(key, i, j) == j;
        if (matches > 1)
            return false;
    }
    return true;
}

TEST(BroadcastPlanes, EveryBatchPrimitiveOnEveryInputShape)
{
    // Each case's registers take every combination of the shapes the
    // producers leave; the batch primitive on the tagged network must
    // match the same primitive on a copy whose planes were all
    // materialized first — in every plane, root, counter and trace
    // event.
    std::vector<simd::Backend> backends = vectorBackends();
    backends.push_back(simd::Backend::Scalar);
    unsigned runs = 0, skipped = 0;
    for (const BatchCase &c : batchCases()) {
        // The first three registers the case does not use.
        Reg scratch[3];
        for (unsigned r = 0, found = 0; found < 3; ++r)
            if (std::find(c.regs.begin(), c.regs.end(),
                          static_cast<Reg>(r)) == c.regs.end())
                scratch[found++] = static_cast<Reg>(r);
        std::size_t combos = 1;
        for (std::size_t k = 0; k < c.regs.size(); ++k)
            combos *= std::size(kShapes);
        for (std::size_t combo = 0; combo < combos; ++combo)
            for (std::size_t n : {1, 2, 4, 16})
                for (bool emulated : {false, true})
                    for (simd::Backend backend : backends) {
                        std::vector<simd::Shape> shapes;
                        ::testing::Message where;
                        where << c.name << " n=" << n
                              << " emulated=" << emulated << " "
                              << simd::toString(backend) << " shapes";
                        for (std::size_t k = 0, rest = combo;
                             k < c.regs.size();
                             ++k, rest /= std::size(kShapes)) {
                            shapes.push_back(
                                kShapes[rest % std::size(kShapes)]);
                            where << ' ' << static_cast<int>(shapes.back());
                        }
                        SCOPED_TRACE(where);
                        trace::Tracer ref_trace, tr;
                        auto ref = makeNet(emulated, n);
                        auto net = makeNet(emulated, n);
                        for (auto [m, t] : {std::pair{ref.get(), &ref_trace},
                                            std::pair{net.get(), &tr}}) {
                            m->setSimdBackend(backend);
                            t->setEnabled(true);
                            m->setTracer(t);
                            seedRegisters(*m, 177 + n);
                            for (std::size_t k = 0; k < c.regs.size(); ++k)
                                shapeAs(*m, c.regs[k], shapes[k],
                                        scratch[0], scratch[1], scratch[2]);
                        }
                        if (c.uniqueKey && !keyIsUnique(*net, *c.uniqueKey)) {
                            ++skipped;
                            continue;
                        }
                        for (unsigned r = 0; r < otn::kNumRegs; ++r)
                            ref->regPlane(static_cast<Reg>(r));
                        c.batch(*ref);
                        c.batch(*net);
                        expectSameOtnState(*ref, *net);
                        expectSameTrace(ref_trace, tr);
                        ++runs;
                    }
    }
    // The precondition rules out only some key shapes, never all.
    EXPECT_GT(runs, 20 * skipped);
}

TEST(BatchProductColSum, LeavesWhatTheTwoStepProductLeft)
{
    // The fused step must leave what a baseOp writing C := A op B
    // followed by the column sums of C left: C's words (Dense), the
    // dirty planes (C's bit added, A and B untouched) and the column
    // roots — here against a plain loop over those two steps, on row
    // scalars that are absent, zero, small and near the word's top.
    // The second product overwrites the first one's C.
    std::vector<simd::Backend> backends = vectorBackends();
    backends.push_back(simd::Backend::Scalar);
    const CostModel wide{DelayModel::Logarithmic, WordFormat(64)};
    const std::uint64_t top = wide.word().maxValue();
    for (simd::Backend backend : backends)
        for (std::size_t n : {1, 4, 16, 64})
            for (bool boolean : {false, true}) {
                OrthogonalTreesNetwork net(n, wide);
                net.setSimdBackend(backend);
                Rng rng(4049 + n);
                std::vector<std::uint64_t> b(n * n);
                for (std::uint64_t &w : b) {
                    const std::uint64_t kinds[] = {
                        otn::kNull, 0, rng.uniform(1, 9),
                        rng.uniform(std::uint64_t{1} << 32, top)};
                    w = kinds[rng.uniform(0, 3)];
                }
                for (std::size_t i = 0; i < n; ++i)
                    for (std::size_t j = 0; j < n; ++j)
                        net.reg(Reg::B, i, j) = b[i * n + j];
                for (int round = 0; round < 2; ++round) {
                    SCOPED_TRACE(::testing::Message()
                                 << simd::toString(backend) << " n=" << n
                                 << " boolean=" << boolean
                                 << " round=" << round);
                    std::vector<std::uint64_t> s(n);
                    for (std::uint64_t &x : s) {
                        const std::uint64_t kinds[] = {
                            otn::kNull, 0, rng.uniform(1, 9),
                            top - rng.uniform(0, 1000)};
                        x = kinds[rng.uniform(0, 3)];
                    }
                    net.setRowRootInputs(s);
                    net.batchRowBroadcast(Reg::A);
                    const std::uint32_t dirty = net.dirtyMask();
                    net.batchProductColSum(1, boolean, Reg::A, Reg::B,
                                           Reg::C);

                    std::vector<std::uint64_t> c(n * n), col(n, 0);
                    for (std::size_t i = 0; i < n; ++i)
                        for (std::size_t j = 0; j < n; ++j) {
                            const std::uint64_t w = b[i * n + j];
                            c[i * n + j] = boolean ? andOrZero(s[i], w)
                                                   : mulOrZero(s[i], w);
                            col[j] += c[i * n + j];
                        }
                    EXPECT_EQ(net.dirtyMask(),
                              dirty | 1u << static_cast<unsigned>(Reg::C));
                    EXPECT_EQ(net.regShape(Reg::C), simd::Shape::Dense);
                    EXPECT_EQ(net.regShape(Reg::A), simd::Shape::RowConst);
                    const OrthogonalTreesNetwork &view = net;
                    EXPECT_EQ(std::memcmp(view.regPlane(Reg::C), c.data(),
                                          c.size() * sizeof(std::uint64_t)),
                              0);
                    EXPECT_EQ(net.colRootOutputs(), col);
                    EXPECT_EQ(net.materializations(), 0u);
                }
            }
}

struct DiffCase
{
    std::size_t n;
    /** Farm lanes that each run the whole differential at once. */
    std::size_t threads;
};

// GoogleTest prints a case as its object bytes, and that dump is part
// of every test name ctest lists: with no padding byte, each printed
// byte is a set field, so listings from two builds are identical.
static_assert(std::has_unique_object_representations_v<DiffCase>);

/**
 * Run `body` once on each of `lanes` host lanes at the same time, the
 * way BatchEngine's host phase drives machines: every lane builds and
 * runs its own networks, so concurrent machines (sharing kernel
 * tables and per-thread scratch) must still match scalar bit for bit.
 */
void
onFarmLanes(unsigned lanes, const std::function<void()> &body)
{
    sim::ThreadPool::shared().run(lanes, [&](unsigned) { body(); });
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

/**
 * Run `algo` (which checks its own result and returns its model time)
 * on a scalar network and on one network per vector backend, all
 * traced: times, registers, roots, clock, counters and traces must
 * match.
 */
template <typename Make, typename Algo>
void
expectBackendsAgree(Make make, Algo algo)
{
    std::unique_ptr<OrthogonalTreesNetwork> ref = make();
    ref->setSimdBackend(simd::Backend::Scalar);
    trace::Tracer ref_trace;
    ref_trace.setEnabled(true);
    ref->setTracer(&ref_trace);
    const vlsi::ModelTime ref_time = algo(*ref);

    for (simd::Backend backend : vectorBackends()) {
        SCOPED_TRACE(simd::toString(backend));
        std::unique_ptr<OrthogonalTreesNetwork> net = make();
        net->setSimdBackend(backend);
        trace::Tracer tr;
        tr.setEnabled(true);
        net->setTracer(&tr);
        EXPECT_EQ(algo(*net), ref_time);
        expectSameOtnState(*ref, *net);
        expectSameTrace(ref_trace, tr);
    }
}

linalg::IntMatrix
randomMatrix(Rng &rng, std::size_t n, std::uint64_t hi)
{
    linalg::IntMatrix m(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            m(i, j) = rng.uniform(0, hi);
    return m;
}

TEST_P(NetworkDifferential, MatMulOtn)
{
    const DiffCase param = GetParam();
    const std::size_t n = param.n;
    onFarmLanes(param.threads, [&] {
        Rng rng(606 + n);
        const linalg::IntMatrix a = randomMatrix(rng, n, n);
        const linalg::IntMatrix b = randomMatrix(rng, n, n);
        const CostModel cost(DelayModel::Logarithmic,
                             WordFormat::forProblemSize(n * n * n * n));
        expectBackendsAgree(
            [&] { return std::make_unique<OrthogonalTreesNetwork>(n, cost); },
            [&](OrthogonalTreesNetwork &net) {
                auto r = otn::matMulPipelined(net, a, b);
                EXPECT_EQ(r.product, linalg::matMul(a, b));
                return r.time;
            });
    });
}

TEST_P(NetworkDifferential, BoolMatMulOtcEmu)
{
    const DiffCase param = GetParam();
    const std::size_t n = param.n;
    onFarmLanes(param.threads, [&] {
        Rng rng(707 + n);
        linalg::BoolMatrix a(n, n, 0), b(n, n, 0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j) {
                a(i, j) = rng.uniform(0, 3) == 0;
                b(i, j) = rng.uniform(0, 3) == 0;
            }
        const linalg::BoolMatrix expect = linalg::boolMatMul(a, b);
        // The Table II machine: cycles of log^2 N one-bit BPs.
        const unsigned logn = vlsi::logCeilAtLeast1(n);
        expectBackendsAgree(
            [&] {
                return std::make_unique<otc::OtcEmulatedOtn>(
                    n, logCost(n), logn * logn);
            },
            [&](OrthogonalTreesNetwork &net) {
                auto r = otn::boolMatMulReplicated(net, a, b);
                for (std::size_t i = 0; i < n; ++i)
                    for (std::size_t j = 0; j < n; ++j)
                        EXPECT_EQ(r.product(i, j) != 0, expect(i, j) != 0)
                            << i << "," << j;
                return r.time;
            });
    });
}

// ----------------------------------------------------------------------
// Whole-matrix products against their per-row formulation
// ----------------------------------------------------------------------

/** One product step as the per-row formulation runs it: the data path
 *  and its accounting together. */
void
perRowStep(OrthogonalTreesNetwork &net, const std::vector<std::uint64_t> &row,
           bool boolean)
{
    net.setRowRootInputs(row);
    net.batchRowBroadcast(Reg::A);
    net.batchProductColSum(boolean ? 1 : net.cost().bitSerialMultiply(),
                           boolean, Reg::A, Reg::B, Reg::C);
}

/** Row i of `out` from the column roots (0/1 when `boolean`). */
void
takeRow(const OrthogonalTreesNetwork &net, linalg::IntMatrix &out,
        std::size_t i, bool boolean)
{
    for (std::size_t j = 0; j < out.cols(); ++j) {
        const std::uint64_t w = net.colRootOutputs()[j];
        out(i, j) = boolean ? (w != 0) : w;
    }
}

/** The products and every model time a whole-matrix product reports. */
using ProductRun =
    std::pair<std::vector<linalg::IntMatrix>, std::vector<vlsi::ModelTime>>;

/** matMulPipelined (or, with `boolean`, boolMatMulPipelined on 0/1
 *  operands) written row by row. */
ProductRun
perRowPipelined(OrthogonalTreesNetwork &net, const linalg::IntMatrix &a,
                const linalg::IntMatrix &b, bool boolean,
                vlsi::ModelTime sep)
{
    const std::size_t m = a.rows();
    linalg::IntMatrix product(m, m, 0);
    const vlsi::ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(),
                           boolean ? "bool-matmul-otn" : "matmul-otn");
    net.loadBase(Reg::B, b, true, sep);
    perRowStep(net, a.row(0), boolean);
    takeRow(net, product, 0, boolean);
    const vlsi::ModelTime first = net.now() - start;
    for (std::size_t i = 1; i < m; ++i) {
        net.runUncharged([&] { perRowStep(net, a.row(i), boolean); });
        takeRow(net, product, i, boolean);
        net.charge(sep);
    }
    return {{product}, {net.now() - start, first, sep}};
}

/** boolMatMulReplicated written row by row (0/1 operands). */
ProductRun
perRowReplicated(OrthogonalTreesNetwork &net, const linalg::IntMatrix &a,
                 const linalg::IntMatrix &b)
{
    const std::size_t m = a.rows();
    linalg::IntMatrix product(m, m, 0);
    const vlsi::ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(), "bool-matmul-replicated");
    net.loadBase(Reg::B, b, true, 1);
    vlsi::ModelTime one = 0;
    for (std::size_t i = 0; i < m; ++i) {
        const vlsi::ModelTime t =
            net.runUncharged([&] { perRowStep(net, a.row(i), true); });
        one = std::max(one, t);
        takeRow(net, product, i, true);
    }
    net.charge(one);
    return {{product}, {net.now() - start, net.now() - start, 0}};
}

/** matMulStream written row by row. */
ProductRun
perRowStream(OrthogonalTreesNetwork &net,
             const std::vector<linalg::IntMatrix> &as,
             const linalg::IntMatrix &b)
{
    const std::size_t m = b.rows();
    const vlsi::ModelTime sep = net.cost().wordSeparation();
    const vlsi::ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(), "matmul-stream-otn");
    net.loadBase(Reg::B, b);
    std::vector<linalg::IntMatrix> products;
    for (std::size_t idx = 0; idx < as.size(); ++idx) {
        linalg::IntMatrix product(m, m, 0);
        for (std::size_t i = 0; i < m; ++i) {
            if (idx == 0 && i == 0) {
                perRowStep(net, as[idx].row(0), false);
            } else {
                net.runUncharged(
                    [&] { perRowStep(net, as[idx].row(i), false); });
                net.charge(sep);
            }
            takeRow(net, product, i, false);
        }
        products.push_back(product);
    }
    return {products, {net.now() - start, m * sep}};
}

/** A 0/1 matrix as the bytes of a BoolMatrix. */
linalg::BoolMatrix
narrowToBool(const linalg::IntMatrix &m)
{
    linalg::BoolMatrix out(m.rows(), m.cols(), 0);
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j)
            out(i, j) = static_cast<std::uint8_t>(m(i, j));
    return out;
}

/** What a whole-matrix product reports, as a ProductRun. */
ProductRun
pipelinedRun(const otn::MatMulResult &r)
{
    return {{r.product}, {r.time, r.firstRowLatency, r.rowInterval}};
}

using MakeNet = std::function<std::unique_ptr<OrthogonalTreesNetwork>()>;
using RunOn = std::function<ProductRun(OrthogonalTreesNetwork &)>;

/**
 * `whole` and `per_row` on two fresh traced machines from `make`:
 * the same products and model times, and the same registers (shapes,
 * dirty planes, materializations, words), roots, counters and trace.
 */
void
expectSameAsPerRow(const MakeNet &make, const RunOn &whole,
                   const RunOn &per_row)
{
    std::unique_ptr<OrthogonalTreesNetwork> a = make(), b = make();
    trace::Tracer ta, tb;
    ta.setEnabled(true);
    tb.setEnabled(true);
    a->setTracer(&ta);
    b->setTracer(&tb);
    EXPECT_EQ(whole(*a), per_row(*b));
    EXPECT_EQ(a->dirtyMask(), b->dirtyMask());
    EXPECT_EQ(a->materializations(), b->materializations());
    for (unsigned r = 0; r < otn::kNumRegs; ++r)
        EXPECT_EQ(a->regShape(static_cast<Reg>(r)),
                  b->regShape(static_cast<Reg>(r)))
            << "register " << r;
    expectSameOtnState(*a, *b);
    expectSameTrace(ta, tb);
}

TEST(WholeMatrixProducts, MatchThePerRowFormulation)
{
    // m = 5 runs on an N = 8 machine, which leaves kNull padding in
    // the row inputs and in B; m = 1 makes the first product the last.
    for (std::size_t m : {1, 2, 5, 16}) {
        const std::size_t n = m == 5 ? 8 : m;
        SCOPED_TRACE(::testing::Message() << "m=" << m << " n=" << n);
        Rng rng(4711 + m);
        const linalg::IntMatrix a = randomMatrix(rng, m, 9);
        const linalg::IntMatrix b = randomMatrix(rng, m, 9);
        const linalg::IntMatrix a01 = randomMatrix(rng, m, 1);
        const linalg::IntMatrix b01 = randomMatrix(rng, m, 1);
        const linalg::BoolMatrix abool = narrowToBool(a01);
        const linalg::BoolMatrix bbool = narrowToBool(b01);
        const std::vector<linalg::IntMatrix> as = {
            randomMatrix(rng, m, 9), a, randomMatrix(rng, m, 9)};
        const CostModel cost(DelayModel::Logarithmic, WordFormat(16));
        const auto make_otn = [&] {
            return std::make_unique<OrthogonalTreesNetwork>(n, cost);
        };
        expectSameAsPerRow(
            make_otn,
            [&](OrthogonalTreesNetwork &net) {
                return pipelinedRun(otn::matMulPipelined(net, a, b));
            },
            [&](OrthogonalTreesNetwork &net) {
                return perRowPipelined(net, a, b, false,
                                       net.cost().wordSeparation());
            });
        expectSameAsPerRow(
            make_otn,
            [&](OrthogonalTreesNetwork &net) {
                return pipelinedRun(
                    otn::boolMatMulPipelined(net, abool, bbool));
            },
            [&](OrthogonalTreesNetwork &net) {
                return perRowPipelined(net, a01, b01, true, 1);
            });
        expectSameAsPerRow(
            [&]() -> std::unique_ptr<OrthogonalTreesNetwork> {
                return std::make_unique<otc::OtcEmulatedOtn>(n, cost, 4);
            },
            [&](OrthogonalTreesNetwork &net) {
                return pipelinedRun(
                    otn::boolMatMulReplicated(net, abool, bbool));
            },
            [&](OrthogonalTreesNetwork &net) {
                return perRowReplicated(net, a01, b01);
            });
        expectSameAsPerRow(
            make_otn,
            [&](OrthogonalTreesNetwork &net) {
                const otn::MatMulStreamResult r =
                    otn::matMulStream(net, as, b);
                return ProductRun{r.products, {r.totalTime, r.matrixInterval}};
            },
            [&](OrthogonalTreesNetwork &net) {
                return perRowStream(net, as, b);
            });
    }
}

TEST_P(NetworkDifferential, CcOtn)
{
    const DiffCase param = GetParam();
    const std::size_t n = param.n;
    onFarmLanes(param.threads, [&] {
        Rng rng(808 + n);
        const graph::Graph g =
            graph::plantedComponents(n, std::max<std::size_t>(1, n / 4), 1,
                                     rng);
        const auto expect = graph::connectedComponents(g);
        expectBackendsAgree(
            [&] {
                return std::make_unique<OrthogonalTreesNetwork>(n,
                                                                logCost(n));
            },
            [&](OrthogonalTreesNetwork &net) {
                auto r = otn::connectedComponentsOtn(net, g);
                EXPECT_EQ(r.labels, expect);
                return r.time;
            });
    });
}

TEST_P(NetworkDifferential, MstOtn)
{
    const DiffCase param = GetParam();
    const std::size_t n = param.n;
    onFarmLanes(param.threads, [&] {
        Rng rng(909 + n);
        const graph::WeightedGraph g =
            graph::randomWeightedConnected(n, n, rng);
        std::uint64_t max_w = 1;
        for (const graph::Edge &e : graph::kruskalMsf(g))
            max_w = std::max(max_w, e.w);
        for (std::size_t u = 0; u < n; ++u)
            for (std::size_t v = 0; v < n; ++v)
                if (g.hasEdge(u, v))
                    max_w = std::max(max_w, g.weight(u, v));
        const CostModel cost(DelayModel::Logarithmic,
                             otn::mstWordFormat(n, max_w));
        expectBackendsAgree(
            [&] { return std::make_unique<OrthogonalTreesNetwork>(n, cost); },
            [&](OrthogonalTreesNetwork &net) {
                auto r = otn::mstOtn(net, g);
                EXPECT_EQ(r.edges, graph::kruskalMsf(g));
                return r.time;
            });
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
