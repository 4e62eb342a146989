/**
 * @file
 * Graph analytics on the OTC — the paper's headline application.
 *
 * The paper's strongest claims (abstract; Tables III) are for graph
 * problems on the orthogonal tree cycles: connected components in
 * O(log^4 N) with AT^2 = O(N^2 log^8 N) and MST with O(N^2 log^9 N).
 * This example runs both on a synthetic "social network": a few dense
 * communities plus random weighted links, verifying against the
 * sequential references and printing the cost ledger.
 *
 * Run: ./build/examples/graph_analytics [vertices] [communities]
 */

#include <cstdio>
#include <cstdlib>

#include "orthotree/orthotree.hh"

int
main(int argc, char **argv)
{
    using namespace ot;

    std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 48;
    std::size_t communities =
        argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 4;
    if (n < 4 || communities < 1 || communities > n) {
        std::fprintf(stderr, "usage: %s [vertices >= 4] [communities]\n",
                     argv[0]);
        return 1;
    }

    sim::Rng rng(2026);

    // --- Connected components on a community graph ------------------
    auto g = graph::plantedComponents(n, communities, /*extra=*/3, rng);
    std::printf("graph: %zu vertices, %zu edges, %zu planted "
                "communities\n",
                g.vertices(), g.edgeCount(), communities);

    // The registry builds power-of-two machines; a smaller graph
    // occupies the first n vertices of the next size up.
    const std::size_t size = vlsi::nextPow2(n);
    const auto model = vlsi::DelayModel::Logarithmic;
    auto cc_machine = topo::registry().build(topo::resolveSpec(
        "otc", topo::Algo::ConnectedComponents, size, model, false));
    auto cc = cc_machine->runConnectedComponents(g);
    const std::uint64_t cc_area = cc_machine->area();
    std::size_t components = 0;
    for (std::size_t v = 0; v < n; ++v)
        components += cc.labels[v] == v;

    std::printf("\nconnected components on the OTC:\n");
    std::printf("  components found : %zu\n", components);
    std::printf("  model time       : %lu units (paper: O(log^4 N))\n",
                static_cast<unsigned long>(cc.time));
    std::printf("  chip area        : %lu lambda^2 (paper: O(N^2))\n",
                static_cast<unsigned long>(cc_area));

    const bool cc_ok = cc.labels == graph::connectedComponents(g);
    std::printf("  matches union-find reference: %s\n",
                cc_ok ? "yes" : "NO");

    std::printf("  membership:");
    for (std::size_t v = 0; v < std::min<std::size_t>(n, 16); ++v)
        std::printf(" %zu->%zu", v, cc.labels[v]);
    if (n > 16)
        std::printf(" ...");
    std::printf("\n");

    // --- MST on a weighted connected overlay -------------------------
    auto wg = graph::randomWeightedConnected(n, 2 * n, rng);
    auto mst_machine = topo::registry().build(
        topo::resolveSpec("otc", topo::Algo::Mst, size, model, false));
    auto mst = mst_machine->runMst(wg);

    std::printf("\nminimum spanning tree on the OTC (Boruvka):\n");
    std::printf("  edges       : %zu (expect %zu)\n", mst.edges.size(),
                n - 1);
    std::printf("  total weight: %lu\n",
                static_cast<unsigned long>(graph::totalWeight(mst.edges)));
    std::printf("  model time  : %lu units (paper: O(log^4 N))\n",
                static_cast<unsigned long>(mst.time));
    std::printf("  chip area   : %lu lambda^2 (paper: O(N^2 log N))\n",
                static_cast<unsigned long>(mst_machine->area()));

    const bool mst_ok = mst.edges == graph::kruskalMsf(wg);
    std::printf("  matches Kruskal reference: %s\n",
                mst_ok ? "yes" : "NO");
    std::printf("  first edges:");
    for (std::size_t e = 0; e < std::min<std::size_t>(5, mst.edges.size());
         ++e)
        std::printf(" (%zu-%zu w=%lu)", mst.edges[e].u, mst.edges[e].v,
                    static_cast<unsigned long>(mst.edges[e].w));
    std::printf(" ...\n");

    // --- Why the OTC: the AT^2 comparison the paper makes -----------
    double at2_otc = static_cast<double>(cc_area) *
                     static_cast<double>(cc.time) *
                     static_cast<double>(cc.time);
    auto mesh_row = analysis::paperFormula(
        analysis::Network::Mesh, analysis::Problem::ConnectedComponents,
        vlsi::DelayModel::Logarithmic, static_cast<double>(n));
    std::printf("\nAT^2 (connected components): OTC measured %.3g; the "
                "mesh/PSN/CCC classes scale as ~N^4 (paper Table III)\n",
                at2_otc);
    std::printf("asymptotic mesh AT^2 at this N (constants = 1): %.3g\n",
                mesh_row.at2());
    return cc_ok && mst_ok ? 0 : 1;
}
