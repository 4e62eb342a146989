/**
 * @file
 * Differential fuzzing of the OTN machine semantics: random sequences
 * of primitives run against an independent shadow model (plain arrays
 * with the Section II-B semantics re-implemented from scratch); every
 * register plane and root port must match after every operation.
 * Catches addressing, selector and reduction bugs that targeted tests
 * can miss.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "otn/network.hh"
#include "sim/rng.hh"

namespace {

using namespace ot::otn;
using ot::sim::Rng;
using ot::vlsi::CostModel;
using ot::vlsi::DelayModel;
using ot::vlsi::WordFormat;

/** Independent re-implementation of the machine state & primitives. */
class ShadowOtn
{
  public:
    explicit ShadowOtn(std::size_t n)
        : n(n),
          regs(kNumRegs, std::vector<std::uint64_t>(n * n, 0)),
          rowRoot(n, kNull),
          colRoot(n, kNull)
    {
    }

    std::size_t n;
    std::vector<std::vector<std::uint64_t>> regs;
    std::vector<std::uint64_t> rowRoot;
    std::vector<std::uint64_t> colRoot;

    std::uint64_t &
    at(unsigned r, std::size_t i, std::size_t j)
    {
        return regs[r][i * n + j];
    }
};

/** The enumerable selector alphabet the fuzzer draws from. */
struct SelSpec
{
    enum Kind { All, Diag, RowIs, ColIs, Even } kind;
    std::size_t arg;

    bool
    test(std::size_t i, std::size_t j) const
    {
        switch (kind) {
          case All:
            return true;
          case Diag:
            return i == j;
          case RowIs:
            return i == arg;
          case ColIs:
            return j == arg;
          case Even:
            return j % 2 == 0;
        }
        return false;
    }

    Selector
    toSelector() const
    {
        switch (kind) {
          case All:
            return Sel::all();
          case Diag:
            return Sel::diag();
          case RowIs:
            return Sel::rowIs(arg);
          case ColIs:
            return Sel::colIs(arg);
          case Even:
            return Sel::evenAlong(Axis::Row);
        }
        return Sel::none();
    }
};

/** Params: (seed, N). */
class FuzzOtn
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>>
{
  protected:
    void
    expectStatesMatch(OrthogonalTreesNetwork &net, ShadowOtn &shadow,
                      int step)
    {
        for (unsigned r = 0; r < kNumRegs; ++r)
            for (std::size_t i = 0; i < shadow.n; ++i)
                for (std::size_t j = 0; j < shadow.n; ++j)
                    ASSERT_EQ(net.reg(static_cast<Reg>(r), i, j),
                              shadow.at(r, i, j))
                        << "step " << step << " reg " << r << " @(" << i
                        << "," << j << ")";
        for (std::size_t i = 0; i < shadow.n; ++i) {
            ASSERT_EQ(net.rowRoot(i), shadow.rowRoot[i])
                << "step " << step << " rowRoot " << i;
            ASSERT_EQ(net.colRoot(i), shadow.colRoot[i])
                << "step " << step << " colRoot " << i;
        }
    }
};

TEST_P(FuzzOtn, RandomPrimitiveSequencesMatchShadow)
{
    auto [seed, kN] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) * 7907 + 13);
    CostModel cost(DelayModel::Logarithmic, WordFormat::forProblemSize(kN));
    OrthogonalTreesNetwork net(kN, cost);
    ShadowOtn shadow(kN);

    auto rand_reg = [&] {
        return static_cast<unsigned>(rng.uniform(0, kNumRegs - 1));
    };
    auto rand_sel = [&]() -> SelSpec {
        auto kind =
            static_cast<SelSpec::Kind>(rng.uniform(0, 4));
        return {kind, static_cast<std::size_t>(rng.uniform(0, kN - 1))};
    };

    // Seed some data through legal channels.
    for (std::size_t i = 0; i < kN; ++i) {
        std::uint64_t v = rng.uniform(0, 60);
        net.rowRoot(i) = v;
        shadow.rowRoot[i] = v;
    }

    const int steps = 300;
    for (int step = 0; step < steps; ++step) {
        int op = static_cast<int>(rng.uniform(0, 6));
        Axis axis = rng.bernoulli(0.5) ? Axis::Row : Axis::Col;
        std::size_t idx = rng.uniform(0, kN - 1);
        unsigned src = rand_reg(), dst = rand_reg();
        SelSpec sel = rand_sel();

        auto leaf = [&](std::size_t k) {
            return axis == Axis::Row ? std::make_pair(idx, k)
                                     : std::make_pair(k, idx);
        };
        auto &root = axis == Axis::Row ? shadow.rowRoot[idx]
                                       : shadow.colRoot[idx];

        switch (op) {
          case 0: { // ROOTTOLEAF
            net.rootToLeaf(axis, idx, sel.toSelector(),
                           static_cast<Reg>(dst));
            for (std::size_t k = 0; k < kN; ++k) {
                auto [i, j] = leaf(k);
                if (sel.test(i, j))
                    shadow.at(dst, i, j) = root;
            }
            break;
          }
          case 1: { // LEAFTOROOT — needs a unique selection
            std::size_t k0 = rng.uniform(0, kN - 1);
            auto [si, sj] = leaf(k0);
            // Leaf k0 of a row vector is column sj; of a column vector,
            // row si.
            Selector unique =
                axis == Axis::Row ? Sel::colIs(sj) : Sel::rowIs(si);
            net.leafToRoot(axis, idx, unique, static_cast<Reg>(src));
            root = shadow.at(src, si, sj);
            break;
          }
          case 2: { // COUNT
            net.countLeafToRoot(axis, idx, static_cast<Reg>(src));
            std::uint64_t c = 0;
            for (std::size_t k = 0; k < kN; ++k) {
                auto [i, j] = leaf(k);
                c += shadow.at(src, i, j) != 0;
            }
            root = c;
            break;
          }
          case 3: { // SUM
            net.sumLeafToRoot(axis, idx, sel.toSelector(),
                              static_cast<Reg>(src));
            std::uint64_t s = 0;
            for (std::size_t k = 0; k < kN; ++k) {
                auto [i, j] = leaf(k);
                if (sel.test(i, j))
                    s += shadow.at(src, i, j);
            }
            root = s;
            break;
          }
          case 4: { // MIN
            net.minLeafToRoot(axis, idx, sel.toSelector(),
                              static_cast<Reg>(src));
            std::uint64_t m = kNull;
            for (std::size_t k = 0; k < kN; ++k) {
                auto [i, j] = leaf(k);
                if (sel.test(i, j))
                    m = std::min(m, shadow.at(src, i, j));
            }
            root = m;
            break;
          }
          case 5: { // PREFIX
            net.prefixSumLeafToLeaf(axis, idx, sel.toSelector(),
                                    static_cast<Reg>(src),
                                    static_cast<Reg>(dst));
            std::uint64_t run = 0;
            for (std::size_t k = 0; k < kN; ++k) {
                auto [i, j] = leaf(k);
                if (sel.test(i, j))
                    run += shadow.at(src, i, j);
                shadow.at(dst, i, j) = run;
            }
            break;
          }
          case 6: { // base op: bounded arithmetic on two registers
            unsigned mode = static_cast<unsigned>(rng.uniform(0, 2));
            net.baseOp(net.cost().bitSerialOp(),
                       [&](std::size_t i, std::size_t j) {
                           auto a = net.reg(static_cast<Reg>(src), i, j);
                           auto b = net.reg(static_cast<Reg>(dst), i, j);
                           std::uint64_t r = mode == 0   ? (a & 0xff) +
                                                             (b & 0xff)
                                             : mode == 1 ? std::min(a, b)
                                                         : (a ^ b) & 0xff;
                           net.reg(static_cast<Reg>(dst), i, j) = r;
                       });
            for (std::size_t i = 0; i < kN; ++i)
                for (std::size_t j = 0; j < kN; ++j) {
                    auto a = shadow.at(src, i, j);
                    auto b = shadow.at(dst, i, j);
                    std::uint64_t r = mode == 0   ? (a & 0xff) + (b & 0xff)
                                      : mode == 1 ? std::min(a, b)
                                                  : (a ^ b) & 0xff;
                    shadow.at(dst, i, j) = r;
                }
            break;
          }
        }
        expectStatesMatch(net, shadow, step);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // Model time advanced for every charged step.
    EXPECT_GT(net.now(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsN8, FuzzOtn,
    ::testing::Combine(::testing::Range(1, 13),
                       ::testing::Values<std::size_t>(8)));

// The same sequences at N = 16 cover a deeper tree (4 levels) and the
// even/odd selector patterns beyond one subtree.
INSTANTIATE_TEST_SUITE_P(
    SeedsN16, FuzzOtn,
    ::testing::Combine(::testing::Range(1, 7),
                       ::testing::Values<std::size_t>(16)));

} // namespace
