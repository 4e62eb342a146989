/**
 * @file
 * Experiment E6 — Figs. 2-3 and the Section V-A area claim.
 *
 * Renders one OTC cycle (Fig. 2) and the (4 x 4)-OTC (Fig. 3, N = 16,
 * log N = 4 in the paper), then sweeps the layout to verify the OTC's
 * area = Theta(N^2) — a Theta(log^2 N) saving over the OTN for the
 * same problem size — and the Section VI-B compact Boolean variant.
 */

#include "bench_common.hh"

namespace {

using namespace ot;
using namespace ot::bench;

void
printTables()
{
    section("E6 / Fig. 2: layout of one OTC cycle (L = 4)");
    layout::OtcLayout fig2(4, 4, 8);
    std::printf("%s\n", fig2.cycleAsciiArt().c_str());
    std::printf("[BP] = cycle processor, T = row/column tree taps at "
                "BP(0), | = cycle wires (right = wrap-around)\n");

    section("E6 / Fig. 3: layout of the (4 x 4)-OTC (N = 16, log N = 4)");
    std::printf("%s\n", fig2.asciiArt().c_str());
    std::printf("(C) = cycle of 4 BPs, * = internal (tree) processor\n");

    section("E6: OTC area scaling (paper: Theta(N^2))");
    analysis::TextTable t({"N", "K=N/logN", "L=logN", "OTC area",
                           "area/N^2", "OTN area", "OTN/OTC"});
    std::vector<double> ns, areas;
    for (std::size_t n : {64, 256, 1024, 4096, 16384}) {
        unsigned l = vlsi::logCeilAtLeast1(n);
        auto cost = defaultCostModel(n);
        layout::OtcLayout otcl(n / l, l, cost.word().bits());
        layout::OtnLayout otnl(n, cost.word().bits());
        double a_otc = static_cast<double>(otcl.metrics().area());
        double a_otn = static_cast<double>(otnl.metrics().area());
        double dn = static_cast<double>(n);
        ns.push_back(dn);
        areas.push_back(a_otc);
        t.addRow({std::to_string(n), std::to_string(n / l),
                  std::to_string(l), analysis::formatQuantity(a_otc),
                  analysis::formatQuantity(a_otc / (dn * dn)),
                  analysis::formatQuantity(a_otn),
                  analysis::formatRatio(a_otn / a_otc)});
    }
    std::printf("%s", t.str().c_str());

    auto fit = analysis::fitPowerLaw(ns, areas);
    std::printf("\nOTC area ~ %s (paper: N^2; R^2 = %.4f)\n",
                analysis::formatExponent("N", fit.exponent).c_str(),
                fit.r2);

    section("E6: Section VI-B compact Boolean cycles (L = log^2 N)");
    analysis::TextTable t2({"N", "cycle len", "cycle block side",
                            "chip area"});
    for (std::size_t n : {64, 256, 1024}) {
        unsigned l = vlsi::logCeilAtLeast1(n);
        layout::OtcLayout compact(vlsi::ceilDiv(n * n, l * l), l * l, 1,
                                  /*compact_bps=*/true);
        t2.addRow({std::to_string(n), std::to_string(l * l),
                   std::to_string(compact.cycleSide()),
                   analysis::formatQuantity(static_cast<double>(
                       compact.metrics().area()))});
    }
    std::printf("%s", t2.str().c_str());
}

} // namespace

int
main()
{
    printTables();
}
