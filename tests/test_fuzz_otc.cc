/**
 * @file
 * Differential fuzzing of the OTC machine semantics: random sequences
 * of cycle primitives (CIRCULATE, ROOTTOCYCLE, CYCLETOROOT,
 * CYCLETOCYCLE and the SUM/MIN variants) run against an independent
 * shadow model re-implemented from Section V-B; every register plane
 * and both root-port streams must match after every operation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "otc/network.hh"
#include "sim/rng.hh"

namespace {

using namespace ot::otc;
using ot::otn::kNull;
using ot::otn::kNumRegs;
using ot::otn::Reg;
using ot::sim::Rng;
using ot::vlsi::CostModel;
using ot::vlsi::DelayModel;
using ot::vlsi::WordFormat;

/** Independent re-implementation of the (K x K, L)-OTC state. */
class ShadowOtc
{
  public:
    ShadowOtc(std::size_t k, std::size_t l)
        : k(k),
          l(l),
          regs(kNumRegs, std::vector<std::uint64_t>(k * k * l, 0)),
          rowStream(k, std::vector<std::uint64_t>(l, kNull)),
          colStream(k, std::vector<std::uint64_t>(l, kNull))
    {
    }

    std::size_t k, l;
    std::vector<std::vector<std::uint64_t>> regs;
    std::vector<std::vector<std::uint64_t>> rowStream;
    std::vector<std::vector<std::uint64_t>> colStream;

    std::uint64_t &
    at(unsigned r, std::size_t i, std::size_t j, std::size_t q)
    {
        return regs[r][(i * k + j) * l + q];
    }

    std::vector<std::uint64_t> &
    stream(Axis axis, std::size_t idx)
    {
        return axis == Axis::Row ? rowStream[idx] : colStream[idx];
    }

    std::pair<std::size_t, std::size_t>
    cycleAddr(Axis axis, std::size_t idx, std::size_t c) const
    {
        return axis == Axis::Row ? std::make_pair(idx, c)
                                 : std::make_pair(c, idx);
    }

    /** R(q) := R((q+1) mod L) for one cycle. */
    void
    circulate(std::size_t i, std::size_t j, const std::vector<Reg> &rs)
    {
        for (Reg r : rs) {
            auto ur = static_cast<unsigned>(r);
            std::uint64_t first = at(ur, i, j, 0);
            for (std::size_t q = 0; q + 1 < l; ++q)
                at(ur, i, j, q) = at(ur, i, j, q + 1);
            at(ur, i, j, l - 1) = first;
        }
    }
};

/** Enumerable cycle-selector alphabet mirrored on both machines. */
struct CSelSpec
{
    enum Kind { All, None, RowIs, ColIs } kind;
    std::size_t arg;

    bool
    test(std::size_t i, std::size_t j) const
    {
        switch (kind) {
          case All:
            return true;
          case None:
            return false;
          case RowIs:
            return i == arg;
          case ColIs:
            return j == arg;
        }
        return false;
    }

    CSel
    toSelector() const
    {
        switch (kind) {
          case All:
            return CSel::all();
          case None:
            return CSel::none();
          case RowIs:
            return CSel::rowIs(arg);
          case ColIs:
            return CSel::colIs(arg);
        }
        return CSel::none();
    }
};

/** Params: (seed, K, L). */
class FuzzOtc
    : public ::testing::TestWithParam<std::tuple<int, std::size_t, unsigned>>
{
  protected:
    void
    expectStatesMatch(OtcNetwork &net, ShadowOtc &shadow, int step)
    {
        for (unsigned r = 0; r < kNumRegs; ++r)
            for (std::size_t i = 0; i < shadow.k; ++i)
                for (std::size_t j = 0; j < shadow.k; ++j)
                    for (std::size_t q = 0; q < shadow.l; ++q)
                        ASSERT_EQ(net.reg(static_cast<Reg>(r), i, j, q),
                                  shadow.at(r, i, j, q))
                            << "step " << step << " reg " << r << " @("
                            << i << "," << j << "," << q << ")";
        for (std::size_t i = 0; i < shadow.k; ++i) {
            ASSERT_EQ(net.rowStream(i), shadow.rowStream[i])
                << "step " << step << " rowStream " << i;
            ASSERT_EQ(net.colStream(i), shadow.colStream[i])
                << "step " << step << " colStream " << i;
        }
    }
};

TEST_P(FuzzOtc, RandomPrimitiveSequencesMatchShadow)
{
    auto [seed, kK, kL] = GetParam();
    Rng rng(static_cast<std::uint64_t>(seed) * 6871 + 29);
    const std::size_t n = kK * kL;
    CostModel cost(DelayModel::Logarithmic, WordFormat::forProblemSize(n));
    OtcNetwork net(kK, kL, cost);
    ASSERT_EQ(net.k(), kK);
    ShadowOtc shadow(kK, kL);

    auto rand_reg = [&] {
        return static_cast<Reg>(rng.uniform(0, kNumRegs - 1));
    };
    auto rand_sel = [&]() -> CSelSpec {
        auto kind = static_cast<CSelSpec::Kind>(rng.uniform(0, 3));
        return {kind, static_cast<std::size_t>(rng.uniform(0, kK - 1))};
    };
    auto rand_regs = [&] {
        std::vector<Reg> rs{rand_reg()};
        if (rng.bernoulli(0.5)) {
            Reg extra = rand_reg();
            if (extra != rs[0])
                rs.push_back(extra);
        }
        return rs;
    };

    // Seed data through the legal channel: root streams in, then
    // ROOTTOCYCLE onto every cycle.
    for (std::size_t i = 0; i < kK; ++i) {
        for (std::size_t q = 0; q < kL; ++q) {
            std::uint64_t v = rng.uniform(0, 60);
            net.rowStream(i)[q] = v;
            shadow.rowStream[i][q] = v;
        }
        net.rootToCycle(Axis::Row, i, CSel::all(), Reg::A);
        for (std::size_t c = 0; c < kK; ++c)
            for (std::size_t q = 0; q < kL; ++q)
                shadow.at(0, i, c, q) = shadow.rowStream[i][q];
    }

    const int steps = 200;
    for (int step = 0; step < steps; ++step) {
        int op = static_cast<int>(rng.uniform(0, 7));
        Axis axis = rng.bernoulli(0.5) ? Axis::Row : Axis::Col;
        std::size_t idx = rng.uniform(0, kK - 1);
        Reg src = rand_reg(), dst = rand_reg();
        CSelSpec sel = rand_sel();

        // The selected cycles of the (axis, idx) vector, in order.
        auto selected = [&](const CSelSpec &s) {
            std::vector<std::pair<std::size_t, std::size_t>> out;
            for (std::size_t c = 0; c < kK; ++c) {
                auto [i, j] = shadow.cycleAddr(axis, idx, c);
                if (s.test(i, j))
                    out.push_back({i, j});
            }
            return out;
        };
        // A selector matching exactly cycle c0 of the vector (or none).
        auto unique_sel = [&](bool empty) {
            std::size_t c0 = rng.uniform(0, kK - 1);
            auto [si, sj] = shadow.cycleAddr(axis, idx, c0);
            // Cycle c0 of a row vector is column sj; of a column
            // vector, row si.
            CSel machine = empty               ? CSel::none()
                           : axis == Axis::Row ? CSel::colIs(sj)
                                               : CSel::rowIs(si);
            return std::make_tuple(machine, si, sj, empty);
        };
        // Mirror of reduceToRoot: per-position reduce over selected
        // cycles into a fresh stream image.
        auto reduced = [&](const CSelSpec &s, Reg r, bool min_mode) {
            std::vector<std::uint64_t> words(kL);
            auto ur = static_cast<unsigned>(r);
            for (std::size_t q = 0; q < kL; ++q) {
                std::uint64_t acc = min_mode ? kNull : 0;
                for (auto [i, j] : selected(s))
                    acc = min_mode
                              ? std::min(acc, shadow.at(ur, i, j, q))
                              : acc + shadow.at(ur, i, j, q);
                words[q] = acc;
            }
            return words;
        };
        auto deposit = [&](const CSelSpec &s, Reg r,
                           const std::vector<std::uint64_t> &words) {
            auto ur = static_cast<unsigned>(r);
            for (auto [i, j] : selected(s))
                for (std::size_t q = 0; q < kL; ++q)
                    shadow.at(ur, i, j, q) = words[q];
        };

        switch (op) {
          case 0: { // CIRCULATE, one cycle
            std::size_t i = rng.uniform(0, kK - 1);
            std::size_t j = rng.uniform(0, kK - 1);
            auto rs = rand_regs();
            net.circulate(i, j, rs);
            shadow.circulate(i, j, rs);
            break;
          }
          case 1: { // VECTORCIRCULATE
            auto rs = rand_regs();
            net.vectorCirculate(axis, idx, rs);
            for (std::size_t c = 0; c < kK; ++c) {
                auto [i, j] = shadow.cycleAddr(axis, idx, c);
                shadow.circulate(i, j, rs);
            }
            break;
          }
          case 2: { // fresh root stream, then ROOTTOCYCLE
            for (std::size_t q = 0; q < kL; ++q) {
                std::uint64_t v = rng.bernoulli(0.15)
                                      ? kNull
                                      : rng.uniform(0, 60);
                (axis == Axis::Row ? net.rowStream(idx)
                                   : net.colStream(idx))[q] = v;
                shadow.stream(axis, idx)[q] = v;
            }
            net.rootToCycle(axis, idx, sel.toSelector(), dst);
            deposit(sel, dst, shadow.stream(axis, idx));
            break;
          }
          case 3: { // CYCLETOROOT from a unique (or absent) source
            auto [machine_sel, si, sj, empty] =
                unique_sel(rng.bernoulli(0.2));
            net.cycleToRoot(axis, idx, machine_sel, src);
            auto &stream = shadow.stream(axis, idx);
            for (std::size_t q = 0; q < kL; ++q)
                stream[q] =
                    empty
                        ? kNull
                        : shadow.at(static_cast<unsigned>(src), si, sj, q);
            break;
          }
          case 4: { // SUM-/MIN-CYCLETOROOT
            bool min_mode = rng.bernoulli(0.5);
            if (min_mode)
                net.minCycleToRoot(axis, idx, sel.toSelector(), src);
            else
                net.sumCycleToRoot(axis, idx, sel.toSelector(), src);
            shadow.stream(axis, idx) = reduced(sel, src, min_mode);
            break;
          }
          case 5: { // CYCLETOCYCLE from a unique (or absent) source
            auto [machine_sel, si, sj, empty] =
                unique_sel(rng.bernoulli(0.2));
            CSelSpec dsel = rand_sel();
            net.cycleToCycle(axis, idx, machine_sel, src,
                             dsel.toSelector(), dst);
            std::vector<std::uint64_t> words(kL);
            for (std::size_t q = 0; q < kL; ++q)
                words[q] =
                    empty
                        ? kNull
                        : shadow.at(static_cast<unsigned>(src), si, sj, q);
            shadow.stream(axis, idx) = words;
            deposit(dsel, dst, words);
            break;
          }
          case 6: { // SUM-/MIN-CYCLETOCYCLE
            bool min_mode = rng.bernoulli(0.5);
            CSelSpec dsel = rand_sel();
            if (min_mode)
                net.minCycleToCycle(axis, idx, sel.toSelector(), src,
                                    dsel.toSelector(), dst);
            else
                net.sumCycleToCycle(axis, idx, sel.toSelector(), src,
                                    dsel.toSelector(), dst);
            auto words = reduced(sel, src, min_mode);
            shadow.stream(axis, idx) = words;
            deposit(dsel, dst, words);
            break;
          }
          case 7: { // base op: bounded arithmetic on two registers
            unsigned mode = static_cast<unsigned>(rng.uniform(0, 2));
            auto us = static_cast<unsigned>(src);
            auto ud = static_cast<unsigned>(dst);
            net.baseOp(net.cost().bitSerialOp(),
                       [&](std::size_t i, std::size_t j, std::size_t q) {
                           auto a = net.reg(src, i, j, q);
                           auto b = net.reg(dst, i, j, q);
                           std::uint64_t r = mode == 0   ? (a & 0xff) +
                                                             (b & 0xff)
                                             : mode == 1 ? std::min(a, b)
                                                         : (a ^ b) & 0xff;
                           net.reg(dst, i, j, q) = r;
                       });
            for (std::size_t i = 0; i < kK; ++i)
                for (std::size_t j = 0; j < kK; ++j)
                    for (std::size_t q = 0; q < kL; ++q) {
                        auto a = shadow.at(us, i, j, q);
                        auto b = shadow.at(ud, i, j, q);
                        std::uint64_t r = mode == 0 ? (a & 0xff) +
                                                          (b & 0xff)
                                          : mode == 1 ? std::min(a, b)
                                                      : (a ^ b) & 0xff;
                        shadow.at(ud, i, j, q) = r;
                    }
            break;
          }
        }
        expectStatesMatch(net, shadow, step);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // Model time advanced for every charged primitive.
    EXPECT_GT(net.now(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzOtc,
    ::testing::Combine(::testing::Range(1, 7),
                       ::testing::Values<std::size_t>(2, 4),
                       ::testing::Values<unsigned>(3, 4)));

} // namespace
