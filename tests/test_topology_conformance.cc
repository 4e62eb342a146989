/**
 * @file
 * The cross-topology differential conformance suite.
 *
 * Every registered algorithm runs on every registered topology across
 * a sweep of problem sizes and seeds, and every result must equal the
 * sequential reference — the contract that makes a registry entry a
 * *machine* rather than a cost table.  On top of the differential
 * sweep: the generic matmul/boolmm path must be exact and charge its
 * closed-form model time on every net that runs it, every integer
 * product path must match an independent triple loop on words whose
 * products and sums wrap, the batch reports
 * must stay byte-identical at host-thread counts 1 and 8, the AT^2
 * rows for the new fat-tree and D2D-MoT machines must be well-formed, and the D2D-MoT's diametrical links
 * must strictly reduce root bandwidth against the plain MoT on the
 * same traffic (the arXiv:1212.2874 property, read off the tracer).
 * Finally, reset() must restart every machine's clock and step count
 * so that a rerun of any algorithm repeats the first run exactly, and
 * after a run that wrote the registers it must leave the OTN and
 * native OTC machines indistinguishable from fresh ones.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hh"
#include "graph/reference_algorithms.hh"
#include "layout/baseline_layouts.hh"
#include "linalg/reference.hh"
#include "otn/registers.hh"
#include "simd/regfile.hh"
#include "sim/rng.hh"
#include "topo/adapters.hh"
#include "topo/algo.hh"
#include "topo/machine.hh"
#include "topo/mot_noc.hh"
#include "topo/registry.hh"
#include "trace/analysis.hh"
#include "trace/tracer.hh"
#include "workload/engine.hh"

namespace {

using namespace ot;
using workload::Algo;
using workload::BatchEngine;
using workload::InstanceSpec;
using workload::WorkloadSpec;

/** One instance per (algo, topology, size): the full conformance grid. */
WorkloadSpec
conformanceGrid(const std::vector<std::size_t> &sizes)
{
    WorkloadSpec spec;
    std::uint64_t seed = 1;
    for (const std::string &net : topo::registry().names())
        for (topo::Algo algo : topo::allAlgos())
            for (std::size_t n : sizes)
                spec.instances.push_back(
                    {algo, net, n, vlsi::DelayModel::Logarithmic, false,
                     seed++});
    return spec;
}

TEST(TopologyConformance, RegistryServesAtLeastSevenTopologies)
{
    auto names = topo::registry().names();
    EXPECT_GE(names.size(), 7u);
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    for (const char *required :
         {"otn", "otc", "mesh", "psn", "ccc", "fattree", "mot",
          "d2d-mot"})
        EXPECT_TRUE(topo::isNetName(required)) << required;
}

TEST(TopologyConformance, EveryAlgoOnEveryTopologyMatchesReference)
{
    BatchEngine engine;
    auto report = engine.run(conformanceGrid({16, 32}));
    for (const auto &r : report.instances)
        EXPECT_TRUE(r.verified)
            << toString(r.spec.algo) << " on " << r.spec.net
            << " n=" << r.spec.n << " seed=" << r.spec.seed;
    EXPECT_TRUE(report.allVerified());
    // The grid really was cross-topology: one farm shard per machine
    // shape, at least one per registered topology.
    EXPECT_GE(report.shards, topo::registry().names().size());
}

TEST(TopologyConformance, SweepIsDeterministicAcrossRepeats)
{
    auto spec = conformanceGrid({16});
    BatchEngine a;
    BatchEngine b;
    EXPECT_EQ(a.run(spec).toJson(), b.run(spec).toJson());
}

TEST(TopologyConformance, ReportsByteIdenticalAtOneVsEightThreads)
{
    auto spec = conformanceGrid({16, 32});
    std::vector<std::string> jsons;
    std::vector<std::string> texts;
    for (unsigned threads : {1u, 8u}) {
        BatchEngine engine(threads);
        auto report = engine.run(spec);
        EXPECT_TRUE(report.allVerified()) << "threads=" << threads;
        jsons.push_back(report.toJson());
        std::ostringstream os;
        report.writeText(os);
        texts.push_back(os.str());
    }
    EXPECT_EQ(jsons[0], jsons[1]);
    EXPECT_EQ(texts[0], texts[1]);
}

/** Fixed inputs for one run of every algorithm at size n. */
struct AlgoInputs
{
    explicit AlgoInputs(std::size_t n) : a(n, n), b(n, n), ba(n, n, 0),
                                         bb(n, n, 0)
    {
        sim::Rng rng(2);
        values.resize(n);
        for (auto &v : values)
            v = rng.uniform(0, n - 1);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j) {
                a(i, j) = rng.uniform(0, 9);
                b(i, j) = rng.uniform(0, 9);
                ba(i, j) = rng.bernoulli(0.35) ? 1 : 0;
                bb(i, j) = rng.bernoulli(0.35) ? 1 : 0;
            }
        g = graph::randomGnp(n, 0.1, rng);
        wg = graph::randomWeightedConnected(n, 2 * n, rng);
    }

    std::vector<std::uint64_t> values;
    linalg::IntMatrix a, b;
    linalg::BoolMatrix ba, bb;
    graph::Graph g{0};
    graph::WeightedGraph wg{0};
};

/** One run's result (flattened to words), model time and run area. */
struct AlgoRun
{
    std::vector<std::uint64_t> result;
    vlsi::ModelTime time = 0;
    std::uint64_t area = 0;
};

std::vector<std::uint64_t>
flatten(const linalg::IntMatrix &m)
{
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < m.rows(); ++i)
        out.insert(out.end(), m.rowData(i), m.rowData(i) + m.cols());
    return out;
}

AlgoRun
runAlgo(topo::Machine &m, topo::Algo algo, const AlgoInputs &in)
{
    switch (algo) {
      case topo::Algo::Sort: {
        auto r = m.runSort(in.values);
        return {r.sorted, r.time, r.area};
      }
      case topo::Algo::MatMul: {
        auto r = m.runMatMul(in.a, in.b);
        return {flatten(r.product), r.time, r.area};
      }
      case topo::Algo::BoolMatMul: {
        auto r = m.runBoolMatMul(in.ba, in.bb);
        return {flatten(r.product), r.time, r.area};
      }
      case topo::Algo::ConnectedComponents: {
        auto r = m.runConnectedComponents(in.g);
        return {{r.labels.begin(), r.labels.end()}, r.time, r.area};
      }
      case topo::Algo::Mst: {
        auto r = m.runMst(in.wg);
        AlgoRun out{{}, r.time, r.area};
        for (const graph::Edge &e : r.edges)
            out.result.insert(out.result.end(), {e.u, e.v, e.w});
        return out;
      }
      case topo::Algo::ShortestPaths: {
        auto r = m.runShortestPaths(in.wg, 0);
        return {r.dist, r.time, r.area};
      }
    }
    return {};
}

TEST(TopologyConformance, RunAreaOverridesOnlyWhereTheChipDiffers)
{
    // A run reports its own chip area (nonzero run.area) exactly where
    // the modeled chip is not the built one: the Table II compact OTC
    // behind boolmm (the "otc" family runs it on "otc-emu") and the
    // mesh's N^2-processor Cannon grid.  Bench rows and reports take
    // run.area over area() on the strength of this.
    const std::size_t n = 16;
    const AlgoInputs in(n);
    for (const std::string &net : topo::registry().names()) {
        for (topo::Algo algo : topo::allAlgos()) {
            auto m = topo::registry().build(topo::resolveSpec(
                net, algo, n, vlsi::DelayModel::Logarithmic, false));
            const std::uint64_t area = runAlgo(*m, algo, in).area;
            const bool mesh_grid =
                net == "mesh" && (algo == topo::Algo::MatMul ||
                                  algo == topo::Algo::BoolMatMul ||
                                  algo == topo::Algo::ConnectedComponents);
            const bool compact_otc =
                (net == "otc" || net == "otc-emu") &&
                algo == topo::Algo::BoolMatMul;
            EXPECT_EQ(area != 0, mesh_grid || compact_otc)
                << toString(algo) << " on " << net;
            if (mesh_grid) {
                layout::MeshLayout grid(n * n, m->cost().word().bits());
                EXPECT_EQ(area, grid.metrics().area()) << toString(algo);
            }
        }
    }
}

TEST(TopologyConformance, GenericMatMulPathsAreExactAndChargeTheirRounds)
{
    // The nets with no native product run Machine::runMatMul and
    // runBoolMatMul: N broadcast rounds, one charge each, priced
    // broadcast + multiply + add (integer) or broadcast + one gate
    // (Boolean).  Products are checked cell for cell against the
    // references on full-range words (the sums wrap) and on Boolean
    // cells holding arbitrary nonzero bytes.
    for (const char *net : {"fattree", "mot", "d2d-mot", "ccc", "psn",
                            "tree"})
        for (std::size_t n : {16, 64}) {
            sim::Rng rng(n);
            linalg::IntMatrix a(n, n), b(n, n);
            linalg::BoolMatrix ba(n, n, 0), bb(n, n, 0);
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < n; ++j) {
                    a(i, j) = rng.next();
                    b(i, j) = rng.next();
                    if (rng.bernoulli(0.1))
                        ba(i, j) = static_cast<std::uint8_t>(
                            rng.uniform(1, 255));
                    if (rng.bernoulli(0.1))
                        bb(i, j) = static_cast<std::uint8_t>(
                            rng.uniform(1, 255));
                }

            auto m = topo::registry().build(topo::resolveSpec(
                net, topo::Algo::MatMul, n, vlsi::DelayModel::Logarithmic,
                false));
            std::uint64_t steps0 = m->steps();
            auto mm = m->runMatMul(a, b);
            EXPECT_EQ(mm.product, linalg::matMul(a, b))
                << "matmul on " << net << " n=" << n;
            EXPECT_EQ(mm.time, n * (m->broadcastCost() +
                                    m->cost().bitSerialMultiply() +
                                    m->cost().bitSerialOp()))
                << "matmul on " << net << " n=" << n;
            EXPECT_EQ(m->steps() - steps0, n)
                << "matmul on " << net << " n=" << n;

            m = topo::registry().build(topo::resolveSpec(
                net, topo::Algo::BoolMatMul, n,
                vlsi::DelayModel::Logarithmic, false));
            steps0 = m->steps();
            auto bm = m->runBoolMatMul(ba, bb);
            const auto expect = linalg::boolMatMul(ba, bb);
            ASSERT_EQ(bm.product.rows(), n);
            ASSERT_EQ(bm.product.cols(), n);
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < n; ++j)
                    EXPECT_EQ(bm.product(i, j), expect(i, j))
                        << "boolmm on " << net << " n=" << n << " cell ("
                        << i << ", " << j << ")";
            EXPECT_EQ(bm.time,
                      n * (m->broadcastCost() + m->cost().bitSerialOp()))
                << "boolmm on " << net << " n=" << n;
            EXPECT_EQ(m->steps() - steps0, n)
                << "boolmm on " << net << " n=" << n;
        }
}

/**
 * C = A * B mod 2^64 by the textbook i-j-k triple loop, shared with no
 * product path.  With `absent`, a kNull operand contributes nothing
 * (the OTN's rule); without it kNull is the word 2^64 - 1.
 */
linalg::IntMatrix
tripleLoopProduct(const linalg::IntMatrix &a, const linalg::IntMatrix &b,
                  bool absent)
{
    const std::size_t n = a.rows();
    linalg::IntMatrix c(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            std::uint64_t sum = 0;
            for (std::size_t k = 0; k < n; ++k) {
                const bool skip = absent && (a(i, k) == otn::kNull ||
                                             b(k, j) == otn::kNull);
                if (!skip)
                    sum += a(i, k) * b(k, j);
            }
            c(i, j) = sum;
        }
    return c;
}

/** Operand classes of the tile kernels' exactness rule. */
enum class Words {
    Narrow, // every word below 2^32: one 32 x 32 -> 64 multiply per lane
    Mixed,  // Narrow plus one word equal to 2^32: the full multiply
    Wide,   // words across 2^32 and near 2^63
};

/**
 * An n x n operand of zeros, small words and words of class `kind`.
 * Narrow words reach 2^32 - 1, so their products and sums wrap.  With
 * `for_otn` (the OTN and the OTC) it holds absent words, which those
 * machines skip (elsewhere kNull would be a wide word), and its wide
 * words stay below 2^63, since their widest word is 2^63 - 1.
 */
linalg::IntMatrix
adversarialOperand(std::size_t n, sim::Rng &rng, Words kind, bool for_otn)
{
    const std::uint64_t half = std::uint64_t{1} << 63;
    const std::uint64_t top = (std::uint64_t{1} << 32) - 1;
    linalg::IntMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            const std::uint64_t r = rng.uniform(0, 1u << 20);
            const std::uint64_t narrow[] = {0, rng.uniform(1, 9),
                                            top - rng.uniform(0, 3),
                                            rng.uniform(0, top)};
            const std::uint64_t wide[] = {
                0, rng.uniform(1, 9),
                (std::uint64_t{1} << 32) - 2 + rng.uniform(0, 3),
                half - 1 - r, for_otn ? half / 2 + r : half + r};
            m(i, j) = kind == Words::Wide
                          ? wide[rng.uniform(0, std::size(wide) - 1)]
                          : narrow[rng.uniform(0, std::size(narrow) - 1)];
            if (for_otn && rng.uniform(0, 5) == 0)
                m(i, j) = otn::kNull;
        }
    if (kind == Words::Mixed) {
        const std::size_t i = rng.uniform(0, n - 1);
        m(i, rng.uniform(0, n - 1)) = std::uint64_t{1} << 32;
    }
    return m;
}

/** `m` with every kNull word replaced by 0. */
linalg::IntMatrix
absentAsZero(linalg::IntMatrix m)
{
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t j = 0; j < m.cols(); ++j)
            if (m(i, j) == otn::kNull)
                m(i, j) = 0;
    return m;
}

TEST(AdversarialMatMul, EveryProductPathMatchesATripleLoop)
{
    // linalg::matMul (every matmul reference), the generic
    // Machine::runMatMul (fattree) and the mesh's Cannon product all
    // run simd::KernelTable::macTile; the OTN and OTC-emulated products
    // run macTileAbsent (absent words contribute nothing).  Each is
    // checked here against a triple loop that shares nothing with
    // them, at sizes that leave partial register tiles (N = 2 and 4
    // fill none), on each side of the exactness rule: all words below
    // 2^32, one word of 2^32 among them, and words near 2^63.  The
    // OTN and OTC products are also compared with the reference on
    // the operands with absent words zeroed.
    for (const char *net : {"otn", "otc", "mesh", "fattree"})
        for (std::size_t n : {2, 4, 8, 16, 64})
            for (Words kind : {Words::Narrow, Words::Mixed, Words::Wide}) {
                SCOPED_TRACE(::testing::Message()
                             << net << " n=" << n << " words "
                             << static_cast<int>(kind));
                topo::MachineSpec spec = topo::resolveSpec(
                    net, topo::Algo::MatMul, n,
                    vlsi::DelayModel::Logarithmic, false);
                spec.wordBits = 64;
                const bool absent =
                    spec.topo == "otn" || spec.topo == "otc-emu";
                sim::Rng rng(6151 + n + 97 * static_cast<int>(kind));
                const linalg::IntMatrix a =
                    adversarialOperand(n, rng, kind, absent);
                const linalg::IntMatrix b =
                    adversarialOperand(n, rng, kind, absent);

                auto m = topo::registry().build(spec);
                const linalg::IntMatrix product =
                    m->runMatMul(a, b).product;
                EXPECT_EQ(product, tripleLoopProduct(a, b, absent));
                EXPECT_EQ(linalg::matMul(a, b),
                          tripleLoopProduct(a, b, false));
                if (absent) {
                    EXPECT_EQ(product, linalg::matMul(absentAsZero(a),
                                                      absentAsZero(b)));
                }
            }
}

TEST(AdversarialMatMul, EveryBooleanProductPathMatchesATripleLoop)
{
    // The OTN's and OTC's Boolean products (an inner product of packed
    // rows of A and packed columns of B), linalg::boolMatMul, the
    // generic runBoolMatMul (fattree) and the mesh (ORs of packed rows
    // of B) and the hex array's wavefront against a triple loop.  Any
    // nonzero cell is true: the operands hold zeros, ones, other
    // nonzero bytes and 0xff (an absent word cut to a byte).
    for (std::size_t n : {2, 4, 8, 16, 64, 128}) {
        sim::Rng rng(4099 + n);
        linalg::BoolMatrix a(n, n), b(n, n);
        for (linalg::BoolMatrix *m : {&a, &b})
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < n; ++j) {
                    const std::uint8_t cells[] = {0, 0, 0, 0, 0, 1, 2, 0xff};
                    (*m)(i, j) = cells[rng.uniform(0, std::size(cells) - 1)];
                }
        // A row of A and a column of B that are all zero leave a zero
        // row and a zero column.
        for (std::size_t k = 0; k < n; ++k) {
            a(n / 2, k) = 0;
            b(k, n - 1) = 0;
        }
        linalg::IntMatrix expect(n, n, 0);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                for (std::size_t k = 0; k < n; ++k)
                    if (a(i, k) != 0 && b(k, j) != 0)
                        expect(i, j) = 1;

        const linalg::BoolMatrix ref = linalg::boolMatMul(a, b);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                EXPECT_EQ(ref(i, j), expect(i, j))
                    << "linalg::boolMatMul n=" << n << " (" << i << ", "
                    << j << ")";
        for (const char *net : {"otn", "otc", "mesh", "fattree", "hex"}) {
            SCOPED_TRACE(::testing::Message() << net << " n=" << n);
            auto m = topo::registry().build(topo::resolveSpec(
                net, topo::Algo::BoolMatMul, n,
                vlsi::DelayModel::Logarithmic, false));
            EXPECT_EQ(m->runBoolMatMul(a, b).product, expect);
        }
    }
}

/** The sort AT^2 row of one topology at n (time from a real run). */
std::pair<std::uint64_t, vlsi::ModelTime>
sortRow(const std::string &net, std::size_t n)
{
    auto spec = topo::resolveSpec(net, topo::Algo::Sort, n,
                                  vlsi::DelayModel::Logarithmic, false);
    auto machine = topo::registry().build(spec);
    std::vector<std::uint64_t> values(n);
    for (std::size_t i = 0; i < n; ++i)
        values[i] = (n - i) * 7 % n;
    auto run = machine->runSort(values);
    std::uint64_t area = run.area ? run.area : machine->area();
    return {area, run.time};
}

TEST(TopologyConformance, AtSquaredRowsCoverFatTreeAndD2dMot)
{
    for (const std::string &net :
         {std::string("fattree"), std::string("mot"),
          std::string("d2d-mot")}) {
        auto [area, time] = sortRow(net, 64);
        EXPECT_GT(area, 0u) << net;
        EXPECT_GT(time, 0u) << net;
    }
    // The diametrical links change routing, not the node grid: same
    // area, strictly faster on root-heavy workloads (checked below),
    // and never slower on the bitonic sweep.
    auto [motArea, motTime] = sortRow("mot", 64);
    auto [d2dArea, d2dTime] = sortRow("d2d-mot", 64);
    EXPECT_GT(d2dArea, motArea); // the 2N extra diametrical wires
    EXPECT_LE(d2dTime, motTime);
}

/** Reversal permutation plus row-local traffic, as (src, dst) pairs. */
std::vector<std::pair<std::size_t, std::size_t>>
rootHeavyTraffic(std::size_t n)
{
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    // i -> n-1-i is diametrical in the node grid: both the row and the
    // column flip halves, so the plain MoT crosses two tree roots per
    // packet and the D2D variant zero.
    for (std::size_t i = 0; i < n; ++i)
        pairs.emplace_back(i, n - 1 - i);
    // Mixed-in local traffic keeps the comparison honest: these pairs
    // cost the same on both variants.
    for (std::size_t i = 0; i + 1 < n; i += 2)
        pairs.emplace_back(i, i + 1);
    return pairs;
}

TEST(TopologyConformance, D2dMotRootBandwidthStrictlyBelowPlainMot)
{
    const std::size_t n = 64;
    auto spec = topo::resolveSpec("mot", topo::Algo::Sort, n,
                                  vlsi::DelayModel::Logarithmic, false);
    auto pairs = rootHeavyTraffic(n);

    auto drive = [&](bool diametrical) {
        auto s = spec;
        s.topo = diametrical ? "d2d-mot" : "mot";
        topo::MotNocMachine machine(s, diametrical);
        trace::Tracer tracer;
        tracer.setEnabled(true);
        machine.setTracer(&tracer);
        vlsi::ModelTime time = machine.runTraffic(pairs);
        machine.setTracer(nullptr);
        auto summary = trace::analyze(tracer);
        // The traced route spans carry root crossings in `words`, so
        // the analyzer's root-bandwidth figure matches the machine's
        // own accumulator.
        EXPECT_EQ(summary.rootWords, machine.rootWords());
        return std::pair<std::uint64_t, vlsi::ModelTime>(
            machine.rootWords(), time);
    };

    auto [motRoot, motTime] = drive(false);
    auto [d2dRoot, d2dTime] = drive(true);

    EXPECT_GT(motRoot, 0u);
    EXPECT_LT(d2dRoot, motRoot);
    EXPECT_LT(d2dTime, motTime);
}

TEST(TopologyConformance, ResetRestartsEveryTopologyClock)
{
    // reset() brings every machine back to its built state: clock and
    // step count at zero, and a rerun repeats the first run exactly —
    // result, time, steps and run area — for every algorithm, the
    // mesh's Cannon grid and the tree's leaf registers included.
    const std::size_t n = 16;
    const AlgoInputs in(n);
    for (const std::string &net : topo::registry().names())
        for (topo::Algo algo : topo::allAlgos()) {
            auto m = topo::registry().build(topo::resolveSpec(
                net, algo, n, vlsi::DelayModel::Logarithmic, false));
            const std::string where =
                std::string(toString(algo)) + " on " + net;
            const AlgoRun first = runAlgo(*m, algo, in);
            const std::uint64_t steps = m->steps();
            m->reset();
            EXPECT_EQ(m->now(), 0u) << where;
            EXPECT_EQ(m->steps(), 0u) << where;
            const AlgoRun second = runAlgo(*m, algo, in);
            EXPECT_EQ(second.result, first.result) << where;
            EXPECT_EQ(second.time, first.time) << where;
            EXPECT_EQ(m->steps(), steps) << where;
            EXPECT_EQ(second.area, first.area) << where;
        }
}

// ------------------------------------------- reset of the register file

/** Number of register planes of `net` holding a nonzero word, read
 *  through the const accessor (which leaves the dirty mask alone). */
template <typename Net>
unsigned
nonzeroPlanes(const Net &net, std::size_t words)
{
    unsigned count = 0;
    for (unsigned r = 0; r < otn::kNumRegs; ++r) {
        const std::uint64_t *p = net.regPlane(static_cast<otn::Reg>(r));
        count += std::any_of(p, p + words,
                             [](std::uint64_t w) { return w != 0; });
    }
    return count;
}

/** Every register plane of `used` equals the one of `fresh`. */
template <typename Net>
void
expectSamePlanes(const Net &used, const Net &fresh, std::size_t words)
{
    for (unsigned r = 0; r < otn::kNumRegs; ++r)
        EXPECT_EQ(std::memcmp(used.regPlane(static_cast<otn::Reg>(r)),
                              fresh.regPlane(static_cast<otn::Reg>(r)),
                              words * sizeof(std::uint64_t)),
                  0)
            << "register plane " << r;
}

std::vector<std::uint64_t>
sortInput(std::size_t n)
{
    sim::Rng rng(2024);
    std::vector<std::uint64_t> v(n);
    for (auto &x : v)
        x = rng.uniform(0, n - 1);
    return v;
}

TEST(TopologyConformance, OtnResetAfterMstMatchesAFreshMachine)
{
    const std::size_t n = 16;
    auto spec = topo::resolveSpec("otn", topo::Algo::Mst, n,
                                  vlsi::DelayModel::Logarithmic, false);
    sim::Rng rng(11);
    topo::OtnTopoMachine used(spec);
    used.runMst(graph::randomWeightedConnected(n, 2 * n, rng));
    const std::size_t words = used.network().n() * used.network().n();
    EXPECT_EQ(nonzeroPlanes(std::as_const(used.network()), words),
              otn::kNumRegs);

    used.reset();
    EXPECT_EQ(nonzeroPlanes(std::as_const(used.network()), words), 0u);

    topo::OtnTopoMachine fresh(spec);
    const auto values = sortInput(n);
    auto a = used.runSort(values);
    auto b = fresh.runSort(values);
    EXPECT_EQ(a.sorted, b.sorted);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(used.steps(), fresh.steps());
    expectSamePlanes(std::as_const(used.network()),
                     std::as_const(fresh.network()), words);
}

TEST(TopologyConformance, OtnResetAfterTaggedSortMatchesAFreshMachine)
{
    // Sort leaves A and R row-broadcast, B column-broadcast and F the
    // rank compare of the two: tagged planes that were never written
    // (so never dirtied).  A reset must drop the tags, and a
    // connected-components run on the reset machine must then leave
    // every plane as a fresh machine's run does.
    const std::size_t n = 16;
    const AlgoInputs in(n);
    auto spec = topo::resolveSpec("otn", topo::Algo::ConnectedComponents,
                                  n, vlsi::DelayModel::Logarithmic, false);
    topo::OtnTopoMachine used(spec);
    used.runSort(sortInput(n));
    const otn::OrthogonalTreesNetwork &net = used.network();
    EXPECT_EQ(net.regShape(otn::Reg::A), simd::Shape::RowConst);
    EXPECT_EQ(net.regShape(otn::Reg::B), simd::Shape::ColConst);
    EXPECT_EQ(net.regShape(otn::Reg::R), simd::Shape::RowConst);
    EXPECT_EQ(net.regShape(otn::Reg::F), simd::Shape::RankCount);

    used.reset();
    for (unsigned r = 0; r < otn::kNumRegs; ++r)
        EXPECT_EQ(net.regShape(static_cast<otn::Reg>(r)), simd::Shape::Dense)
            << "register plane " << r;
    const std::size_t words = n * n;
    EXPECT_EQ(nonzeroPlanes(net, words), 0u);

    topo::OtnTopoMachine fresh(spec);
    auto a = used.runConnectedComponents(in.g);
    auto b = fresh.runConnectedComponents(in.g);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(used.steps(), fresh.steps());
    expectSamePlanes(net, std::as_const(fresh.network()), words);
}

TEST(TopologyConformance, RegisteredOtnRunsMaterializeNoPlane)
{
    // Broadcasts leave tagged planes, and every registered run reads
    // them without expanding them to N^2 words: MST writes its hook key
    // into H's Dense diagonal, not into the row broadcast X.  Native
    // SORT-OTC runs on the OTC's own planes
    // (RegisteredSortsWriteNoRegisterPlane pins it).
    const std::size_t n = 64;
    const AlgoInputs in(n);
    for (const char *net : {"otn", "otc"})
        for (topo::Algo algo : topo::allAlgos()) {
            const std::string where =
                std::string(toString(algo)) + " on " + net;
            auto m = topo::registry().build(topo::resolveSpec(
                net, algo, n, vlsi::DelayModel::Logarithmic, false));
            auto *otn_machine = dynamic_cast<topo::OtnTopoMachine *>(m.get());
            if (!otn_machine) {
                EXPECT_EQ(std::string(net), "otc") << where;
                EXPECT_EQ(algo, topo::Algo::Sort) << where;
                continue;
            }
            runAlgo(*m, algo, in);
            EXPECT_EQ(otn_machine->network().materializations(), 0u)
                << where;
        }
}

TEST(TopologyConformance, RegisteredGraphRunsNeverWriteTheCandidatePlane)
{
    // CONNECT's and MST's candidate plane T is derived from A and the
    // two label broadcasts (simd::Shape::Candidate), and its row minima
    // walk A's edges: a registered cc or mst run hands no word of T out
    // for writing, and still matches the sequential reference.
    const std::size_t n = 64;
    const AlgoInputs in(n);
    const auto bit = [](otn::Reg r) {
        return std::uint32_t{1} << static_cast<unsigned>(r);
    };
    for (const char *net : {"otn", "otc-emu", "otc"})
        for (topo::Algo algo :
             {topo::Algo::ConnectedComponents, topo::Algo::Mst}) {
            const std::string where =
                std::string(toString(algo)) + " on " + net;
            auto m = topo::registry().build(topo::resolveSpec(
                net, algo, n, vlsi::DelayModel::Logarithmic, false));
            auto *otn_machine = dynamic_cast<topo::OtnTopoMachine *>(m.get());
            ASSERT_NE(otn_machine, nullptr) << where;
            if (algo == topo::Algo::ConnectedComponents)
                EXPECT_EQ(m->runConnectedComponents(in.g).labels,
                          graph::connectedComponents(in.g))
                    << where;
            else
                EXPECT_EQ(graph::totalWeight(m->runMst(in.wg).edges),
                          graph::totalWeight(graph::kruskalMsf(in.wg)))
                    << where;
            const std::uint32_t dirty = otn_machine->network().dirtyMask();
            EXPECT_EQ(dirty & bit(otn::Reg::T), 0u) << where;
            EXPECT_NE(dirty & bit(otn::Reg::A), 0u) << where; // A was loaded
            EXPECT_EQ(otn_machine->network().regShape(otn::Reg::T),
                      simd::Shape::Candidate)
                << where;
        }
}

TEST(TopologyConformance, RegisteredSortsWriteNoRegisterPlane)
{
    // The enumeration sorts keep every plane they produce as shape
    // vectors — A, B and R as broadcasts, the compare plane as
    // RankCount — and read them through their shapes: a sort dirties
    // no plane and expands none.
    const std::size_t n = 64;
    const auto values = sortInput(n);
    for (const char *net : {"otn", "otc-emu", "otc"}) {
        auto m = topo::registry().build(topo::resolveSpec(
            net, topo::Algo::Sort, n, vlsi::DelayModel::Logarithmic, false));
        auto r = m->runSort(values);
        std::vector<std::uint64_t> want = values;
        std::sort(want.begin(), want.end());
        EXPECT_EQ(r.sorted, want) << net;
        if (auto *otn_machine =
                dynamic_cast<topo::OtnTopoMachine *>(m.get())) {
            EXPECT_EQ(otn_machine->network().dirtyMask(), 0u) << net;
            EXPECT_EQ(otn_machine->network().materializations(), 0u) << net;
        } else {
            auto &otc_machine = dynamic_cast<topo::OtcNativeTopoMachine &>(*m);
            EXPECT_EQ(otc_machine.network().dirtyMask(), 0u) << net;
            EXPECT_EQ(otc_machine.network().materializations(), 0u) << net;
        }
    }
}

TEST(TopologyConformance, OtcResetAfterTaggedSortMatchesAFreshMachine)
{
    // SORT-OTC leaves A and R row-broadcast, B column-broadcast and C
    // its RankCount compare plane, none of them written.  A reset must
    // drop the tags: a stream into one cycle of each of those planes
    // must then leave the rest of the plane zero, as on a fresh
    // machine (a kept tag would expand its stale vector), and a sort
    // on the reset machine must match a fresh machine's.
    const std::size_t n = 16;
    auto spec = topo::resolveSpec("otc", topo::Algo::Sort, n,
                                  vlsi::DelayModel::Logarithmic, false);
    topo::OtcNativeTopoMachine used(spec);
    const auto values = sortInput(n);
    used.runSort(values);
    otc::OtcNetwork &net = used.network();
    EXPECT_EQ(net.regShape(otn::Reg::A), simd::Shape::RowConst);
    EXPECT_EQ(net.regShape(otn::Reg::B), simd::Shape::ColConst);
    EXPECT_EQ(net.regShape(otn::Reg::C), simd::Shape::RankCount);
    EXPECT_EQ(net.regShape(otn::Reg::R), simd::Shape::RowConst);

    used.reset();
    for (unsigned r = 0; r < otn::kNumRegs; ++r)
        EXPECT_EQ(net.regShape(static_cast<otn::Reg>(r)), simd::Shape::Dense)
            << "register plane " << r;
    const std::size_t words = net.k() * net.k() * net.cycleLen();
    EXPECT_EQ(nonzeroPlanes(std::as_const(net), words), 0u);

    topo::OtcNativeTopoMachine fresh(spec);
    for (otc::OtcNetwork *m : {&net, &fresh.network()})
        for (otn::Reg r : {otn::Reg::A, otn::Reg::B, otn::Reg::C,
                           otn::Reg::R}) {
            std::fill(m->rowStream(0).begin(), m->rowStream(0).end(),
                      static_cast<std::uint64_t>(r) + 7);
            m->rootToCycle(otc::Axis::Row, 0, otc::CSel::colIs(1), r);
        }
    expectSamePlanes(std::as_const(net), std::as_const(fresh.network()),
                     words);

    used.reset();
    fresh.reset();
    auto a = used.runSort(values);
    auto b = fresh.runSort(values);
    EXPECT_EQ(a.sorted, b.sorted);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(used.steps(), fresh.steps());
    expectSamePlanes(std::as_const(net), std::as_const(fresh.network()),
                     words);
}

TEST(TopologyConformance, OtcNativeResetAfterFullWriteMatchesAFreshMachine)
{
    const std::size_t n = 16;
    auto spec = topo::resolveSpec("otc", topo::Algo::Sort, n,
                                  vlsi::DelayModel::Logarithmic, false);
    topo::OtcNativeTopoMachine used(spec);
    otc::OtcNetwork &net = used.network();
    const std::size_t words = net.k() * net.k() * net.cycleLen();
    for (unsigned r = 0; r < otn::kNumRegs; ++r)
        net.fillReg(static_cast<otn::Reg>(r), 1);
    EXPECT_EQ(nonzeroPlanes(std::as_const(net), words), otn::kNumRegs);

    used.reset();
    EXPECT_EQ(nonzeroPlanes(std::as_const(net), words), 0u);

    topo::OtcNativeTopoMachine fresh(spec);
    const auto values = sortInput(n);
    auto a = used.runSort(values);
    auto b = fresh.runSort(values);
    EXPECT_EQ(a.sorted, b.sorted);
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(used.steps(), fresh.steps());
    expectSamePlanes(std::as_const(net), std::as_const(fresh.network()),
                     words);
}

} // namespace
