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

        // The registry sizes both machines' words for packed
        // (weight, u, v) edge keys; the OTC chip holds the resident
        // weight matrix, hence its extra log N of area.
        auto mst = [&](topo::Machine &m) { return m.runMst(g); };
        auto r_otn = registryRow(otn_row, "otn", topo::Algo::Mst, n,
                                 vlsi::DelayModel::Logarithmic, mst);
        auto r_otc = registryRow(otc_row, "otc", topo::Algo::Mst, n,
                                 vlsi::DelayModel::Logarithmic, mst);
        if (r_otn.edges != expect || r_otc.edges != expect)
            std::abort();

        t.addRow({std::to_string(n),
                  std::to_string(g.skeleton().edgeCount()),
                  std::to_string(graph::totalWeight(r_otn.edges)),
                  analysis::formatQuantity(
                      static_cast<double>(r_otn.time)),
                  analysis::formatQuantity(
                      static_cast<double>(r_otc.time)),
                  std::to_string(r_otn.phases)});
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
