/**
 * @file
 * Extension experiment E12 — shortest paths on the OTN via (min, +)
 * products (the Section III machinery applied to the semiring the
 * paper's graph background [12], [26] lives in).
 *
 * Reports Bellman-Ford SSSP (rounds x O(log^2 N)) and APSP by
 * (min, +) squaring (log N pipelined products), both verified against
 * Dijkstra / Floyd-Warshall on every input.
 */

#include "bench_common.hh"

namespace {

using namespace ot;
using namespace ot::bench;

void
printTables()
{
    section("E12 (extension): shortest paths on the OTN");

    analysis::TextTable t({"N", "edges", "SSSP rounds", "SSSP time",
                           "APSP time", "log^2 N", "N log N"});
    MeasuredRow sssp_row{"OTN SSSP", {}, {}, 0};
    std::vector<double> apsp_times;
    for (std::size_t n : {16, 32, 64, 128}) {
        sim::Rng rng(120 + n);
        auto g = graph::randomWeightedConnected(n, 2 * n, rng);

        std::size_t src = rng.uniform(0, n - 1);
        auto sssp = registryRow(
            sssp_row, "otn", topo::Algo::ShortestPaths, n,
            vlsi::DelayModel::Logarithmic,
            [&](topo::Machine &m) { return m.runShortestPaths(g, src); });
        if (sssp.dist != graph::dijkstra(g, src))
            std::abort();

        // APSP is not a registry algorithm: it runs on an OTN built
        // with the same path-sum word width.
        vlsi::CostModel cost(vlsi::DelayModel::Logarithmic,
                             otn::pathWordFormat(n, n * n));
        otn::OrthogonalTreesNetwork net(n, cost);
        auto apsp = otn::apspOtn(net, g);
        if (apsp.dist != graph::floydWarshall(g))
            std::abort();

        double dn = static_cast<double>(n);
        double l = std::log2(dn);
        apsp_times.push_back(static_cast<double>(apsp.time));
        t.addRow({std::to_string(n),
                  std::to_string(g.skeleton().edgeCount()),
                  std::to_string(sssp.rounds),
                  analysis::formatQuantity(
                      static_cast<double>(sssp.time)),
                  analysis::formatQuantity(
                      static_cast<double>(apsp.time)),
                  analysis::formatQuantity(l * l),
                  analysis::formatQuantity(dn * l)});
    }
    std::printf("%s", t.str().c_str());

    auto sfit = analysis::fitPowerLaw(sssp_row.ns, sssp_row.times);
    auto afit = analysis::fitPowerLaw(sssp_row.ns, apsp_times);
    std::printf("\nSSSP time ~ %s (diameter x log^2 N rounds); "
                "APSP time ~ %s (log N pipelined products, ~N log^2 N)\n",
                analysis::formatExponent("N", sfit.exponent).c_str(),
                analysis::formatExponent("N", afit.exponent).c_str());
    std::printf("every distance verified against Dijkstra / "
                "Floyd-Warshall.\n");
}

} // namespace

int
main()
{
    printTables();
}
