/**
 * @file
 * Experiment E8 — minimum spanning tree (abstract / Section III):
 * O(log^4 N) time; AT^2 = O(N^2 log^9 N) on the OTC.
 *
 * Measures the Boruvka-on-OTN/OTC implementation against Kruskal for
 * correctness, fits the polylog time growth, and reports the AT^2
 * rows (OTC area carries the extra log N for the resident weight
 * matrix).
 */

#include "bench_common.hh"

namespace {

using namespace ot;
using namespace ot::bench;

void
printTables()
{
    section("E8: minimum spanning tree (paper: OTC AT^2 = N^2 log^9 N)");
    printPaperTable(analysis::Problem::Mst, vlsi::DelayModel::Logarithmic,
                    {analysis::Network::Mesh, analysis::Network::Psn,
                     analysis::Network::Ccc, analysis::Network::Otn,
                     analysis::Network::Otc},
                    128.0);

    MeasuredRow otn_row{"OTN (Boruvka)", {}, {}, 0};
    MeasuredRow otc_row{"OTC (Boruvka)", {}, {}, 0};

    analysis::TextTable t({"N", "edges", "MST weight", "OTN time",
                           "OTC time", "iterations"});
    for (std::size_t n : {16, 32, 64, 128}) {
        sim::Rng rng(50 + n);
        auto g = graph::randomWeightedConnected(n, 2 * n, rng);
        auto expect = graph::kruskalMsf(g);
        vlsi::CostModel cost(vlsi::DelayModel::Logarithmic,
                             otn::mstWordFormat(n, n * n));

        otn::OrthogonalTreesNetwork net(n, cost);
        auto r_otn = otn::mstOtn(net, g);
        if (r_otn.edges != expect)
            std::abort();

        auto r_otc = otc::mstOtc(g, cost);
        if (r_otc.result.edges != expect)
            std::abort();

        double dn = static_cast<double>(n);
        otn_row.ns.push_back(dn);
        otn_row.times.push_back(static_cast<double>(r_otn.time));
        otn_row.area =
            static_cast<double>(net.chipLayout().metrics().area());
        otc_row.ns.push_back(dn);
        otc_row.times.push_back(
            static_cast<double>(r_otc.result.time));
        otc_row.area = static_cast<double>(r_otc.chip.area());

        t.addRow({std::to_string(n),
                  std::to_string(g.skeleton().edgeCount()),
                  std::to_string(r_otn.totalWeight),
                  analysis::formatQuantity(
                      static_cast<double>(r_otn.time)),
                  analysis::formatQuantity(
                      static_cast<double>(r_otc.result.time)),
                  std::to_string(r_otn.iterations)});
    }
    std::printf("%s", t.str().c_str());
    std::printf("\n");
    printMeasured({otn_row, otc_row});

    std::printf("\nShape checks:\n");
    std::printf("  time grows polylogarithmically (fit above; paper "
                "log^4 N)\n");
    std::printf("  OTN area / OTC area at N = 128: %.1f (paper: "
                "Theta(log N) after the MST area penalty)\n",
                otn_row.area / otc_row.area);
}

} // namespace

int
main()
{
    printTables();
}
