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
    std::vector<double> ns, sssp_times, apsp_times;
    for (std::size_t n : {16, 32, 64, 128}) {
        sim::Rng rng(120 + n);
        auto g = graph::randomWeightedConnected(n, 2 * n, rng);
        vlsi::CostModel cost(vlsi::DelayModel::Logarithmic,
                             otn::pathWordFormat(n, n * n));

        otn::OrthogonalTreesNetwork net(n, cost);
        std::size_t src = rng.uniform(0, n - 1);
        auto sssp = otn::ssspOtn(net, g, src);
        if (sssp.dist != graph::dijkstra(g, src))
            std::abort();

        otn::OrthogonalTreesNetwork net2(n, cost);
        auto apsp = otn::apspOtn(net2, g);
        if (apsp.dist != graph::floydWarshall(g))
            std::abort();

        double dn = static_cast<double>(n);
        double l = std::log2(dn);
        ns.push_back(dn);
        sssp_times.push_back(static_cast<double>(sssp.time));
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

    auto sfit = analysis::fitPowerLaw(ns, sssp_times);
    auto afit = analysis::fitPowerLaw(ns, apsp_times);
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
