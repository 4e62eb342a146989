/**
 * @file
 * Experiment E3 — Table III: connected components of an N-vertex
 * undirected graph (adjacency-matrix representation).
 *
 * Simulated rows: mesh (Boolean closure via Cannon squaring), OTN
 * (HCS CONNECT, O(log^4 N)), OTC (same algorithm on the emulated
 * machine, O(N^2) area).  PSN/CCC rows are analytic (the paper's own
 * figures cite a straightforward implementation of CONNECT [12]).
 *
 * Shape to reproduce: OTN/OTC times grow polylogarithmically while the
 * mesh grows ~N; OTC AT^2 = N^2 log^8 N vs the others' ~N^4.
 */

#include "bench_common.hh"

namespace {

using namespace ot;
using namespace ot::bench;

const std::vector<std::size_t> kSweep{16, 32, 64, 128};

graph::Graph
workloadGraph(std::size_t n, std::uint64_t seed)
{
    sim::Rng rng(seed);
    // Sparse G(n, p) with expected degree ~2: a mix of components.
    return graph::randomGnp(n, 2.0 / static_cast<double>(n), rng);
}

void
printTables()
{
    section("E3 / Table III: connected components");
    printPaperTable(analysis::Problem::ConnectedComponents,
                    vlsi::DelayModel::Logarithmic,
                    {analysis::Network::Mesh, analysis::Network::Psn,
                     analysis::Network::Ccc, analysis::Network::Otn,
                     analysis::Network::Otc},
                    static_cast<double>(kSweep.back()));

    MeasuredRow mesh{"mesh (closure)", {}, {}, 0};
    MeasuredRow otn_row{"OTN (CONNECT)", {}, {}, 0};
    MeasuredRow otc_row{"OTC (emulated)", {}, {}, 0};
    const std::vector<std::pair<const char *, MeasuredRow *>> nets{
        {"mesh", &mesh}, {"otn", &otn_row}, {"otc", &otc_row}};

    for (std::size_t n : kSweep) {
        auto g = workloadGraph(n, 30 + n);
        auto expect = graph::connectedComponents(g);

        auto cc = [&](topo::Machine &m) {
            return m.runConnectedComponents(g);
        };
        for (auto [net, row] : nets) {
            auto r = registryRow(*row, net, topo::Algo::ConnectedComponents,
                                 n, vlsi::DelayModel::Logarithmic, cc);
            if (r.labels != expect)
                std::abort();
        }
    }

    printMeasured({mesh, otn_row, otc_row});

    std::printf("\nShape checks at N = %zu:\n", kSweep.back());
    std::printf("  mesh time / OTC time = %.2f (paper: N/log^4 N, "
                "grows with N)\n",
                mesh.times.back() / otc_row.times.back());
    std::printf("  OTN time / OTC time  = %.2f (paper: Theta(1))\n",
                otn_row.times.back() / otc_row.times.back());
    std::printf("  OTN area / OTC area  = %.1f (paper: "
                "Theta(log^2 N))\n",
                otn_row.area / otc_row.area);

    // Mesh vs OTC time crossover trend across the sweep.
    std::printf("\n  mesh/OTC time ratio across the sweep:");
    for (std::size_t i = 0; i < kSweep.size(); ++i)
        std::printf(" N=%zu: %.2f", kSweep[i],
                    mesh.times[i] / otc_row.times[i]);
    std::printf("  (must grow — the polylog vs N separation)\n");
}

} // namespace

int
main()
{
    printTables();
}
