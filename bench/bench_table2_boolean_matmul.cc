/**
 * @file
 * Experiment E2 — Table II: Boolean matrix multiplication.
 *
 * Simulated rows: mesh (Cannon, O(N) time), OTN pipelined (Section
 * III-A, O(N) with unit separation), OTN/OTC replicated-block machines
 * (the Table II O(log^2 N) rows).  PSN/CCC rows are analytic only —
 * the paper's own figures for them are citations of the classical
 * N^3-processor construction [10], [23], which is not simulable at
 * any instructive scale (documented substitution, DESIGN.md).
 *
 * Shape to reproduce: OTN/OTC match the fast networks' O(log^2 N) time
 * while their AT^2 (N^4 log^2 N for the OTC) beats the PSN/CCC's ~N^6
 * by a factor that grows like N^2.
 */

#include "bench_common.hh"

namespace {

using namespace ot;
using namespace ot::bench;

const std::vector<std::size_t> kSweep{8, 16, 32, 64};

linalg::BoolMatrix
randomBool(std::size_t n, std::uint64_t seed)
{
    sim::Rng rng(seed);
    linalg::BoolMatrix m(n, n, 0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            m(i, j) = rng.bernoulli(0.35) ? 1 : 0;
    return m;
}

void
printTables()
{
    section("E2 / Table II: Boolean matrix multiplication");
    printPaperTable(analysis::Problem::BoolMatMul,
                    vlsi::DelayModel::Logarithmic,
                    {analysis::Network::Mesh, analysis::Network::Psn,
                     analysis::Network::Ccc, analysis::Network::Otn,
                     analysis::Network::Otc},
                    static_cast<double>(kSweep.back()));

    MeasuredRow mesh{"mesh (Cannon)", {}, {}, 0};
    MeasuredRow otn_pipe{"OTN pipelined", {}, {}, 0};
    MeasuredRow otn_rep{"OTN replicated", {}, {}, 0};
    MeasuredRow otc_rep{"OTC (Sec VI-B)", {}, {}, 0};
    MeasuredRow mot3d{"3D mesh of trees", {}, {}, 0};
    MeasuredRow hex{"hex array [15]", {}, {}, 0};
    std::vector<double> otc_areas; // each N's own Table II OTC chip

    for (std::size_t n : kSweep) {
        auto a = randomBool(n, 10 + n);
        auto b = randomBool(n, 20 + n);
        auto cost = defaultCostModel(n);
        double dn = static_cast<double>(n);

        // Verify the registry-built engines against the sequential
        // reference.
        auto expect = linalg::boolMatMul(a, b);
        auto boolmm = [&](const char *net, MeasuredRow &row) {
            auto r = registryRow(
                row, net, topo::Algo::BoolMatMul, n,
                vlsi::DelayModel::Logarithmic,
                [&](topo::Machine &m) { return m.runBoolMatMul(a, b); });
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < n; ++j)
                    if ((r.product(i, j) != 0) != (expect(i, j) != 0))
                        std::abort();
        };
        boolmm("mesh", mesh);
        boolmm("otn", otn_pipe);
        boolmm("otc", otc_rep);
        otc_areas.push_back(otc_rep.area);
        // The other low-area baseline the paper's Section I cites:
        // the hexagonal systolic array [15].
        boolmm("hex", hex);
        {
            // Time from the replicated-block run; area is the paper's
            // (N^2 x N^2)-OTN: K^2 log^2 K with K = N^2.
            otn::OrthogonalTreesNetwork block(n, cost);
            auto r = otn::boolMatMulReplicated(block, a, b);
            otn_rep.ns.push_back(dn);
            otn_rep.times.push_back(static_cast<double>(r.time));
            layout::OtnLayout big(n * n,
                                  cost.word().bits());
            otn_rep.area = static_cast<double>(big.metrics().area());
        }
        {
            // Section VII-B: Leighton's 3D mesh of trees — area
            // Theta(N^4), polylog time, AT^2 = O(N^4 log^2 N).
            otn::MeshOfTrees3d m(n, cost);
            auto r = m.boolMatMul(a, b);
            mot3d.ns.push_back(dn);
            mot3d.times.push_back(static_cast<double>(r.time));
            mot3d.area = static_cast<double>(m.chipArea());
        }
    }

    printMeasured({mesh, otn_pipe, otn_rep, otc_rep, mot3d, hex});

    std::printf("\nShape checks at N = %zu:\n", kSweep.back());
    double l = std::log2(static_cast<double>(kSweep.back()));
    std::printf("  mesh time / OTC time   = %.1f (paper: N/log^2 N = "
                "%.1f-ish)\n",
                mesh.times.back() / otc_rep.times.back(),
                static_cast<double>(kSweep.back()) / (l * l));
    std::printf("  OTN-rep area / OTC area = %.1f (paper: log^4 N = "
                "%.0f-ish)\n",
                otn_rep.area / otc_rep.area, std::pow(l, 4.0));

    // The headline AT^2 factor vs the analytic PSN/CCC rows.  A single
    // ratio mixes our measured constants with the formulas' constants
    // = 1, so report the *trend* across the sweep — the paper says it
    // grows like N^2 / log^4 N.
    std::printf("  PSN AT^2 (analytic) / OTC AT^2 (measured) across the "
                "sweep:");
    std::vector<double> ratio_ns, ratios;
    for (std::size_t i = 0; i < kSweep.size(); ++i) {
        double dn = static_cast<double>(kSweep[i]);
        auto psn = analysis::paperFormula(analysis::Network::Psn,
                                          analysis::Problem::BoolMatMul,
                                          vlsi::DelayModel::Logarithmic,
                                          dn);
        double otc_at2 =
            otc_areas[i] * otc_rep.times[i] * otc_rep.times[i];
        ratio_ns.push_back(dn);
        ratios.push_back(psn.at2() / otc_at2);
        std::printf(" N=%zu: %s", kSweep[i],
                    analysis::formatRatio(ratios.back()).c_str());
    }
    auto rfit = analysis::fitPowerLaw(ratio_ns, ratios);
    std::printf("\n  ratio grows ~ %s (paper: ~N^2/polylog)\n",
                analysis::formatExponent("N", rfit.exponent).c_str());
}

} // namespace

int
main()
{
    printTables();
}
