/**
 * @file
 * Experiment E1 — Table I: sorting N numbers under Thompson's
 * logarithmic-delay model on the mesh, PSN, CCC, OTN and OTC.
 *
 * Regenerates the table's rows from measurement: model time from the
 * simulated machines, area from the concrete/analytic layouts, and
 * fitted growth exponents so the asymptotic classes can be compared
 * with the paper's (mesh ~ sqrt(N); PSN/CCC ~ log^3 N; OTN/OTC ~
 * log^2 N; OTC area ~ N^2 vs OTN's N^2 log^2 N).
 */

#include "bench_common.hh"

namespace {

using namespace ot;
using namespace ot::bench;

// The OTN holds 12 registers per base processor (n^2 of them), so the
// unified sweep stops at 1024; the O(n)-memory baselines sweep further
// below.
const std::vector<std::size_t> kSweep{64, 128, 256, 512, 1024};

void
printTables()
{
    section("E1 / Table I: sorting, logarithmic (Thompson) delay model");
    printPaperTable(analysis::Problem::Sorting,
                    vlsi::DelayModel::Logarithmic,
                    {analysis::Network::Mesh, analysis::Network::Psn,
                     analysis::Network::Ccc, analysis::Network::Otn,
                     analysis::Network::Otc},
                    static_cast<double>(kSweep.back()));

    MeasuredRow mesh{"mesh", {}, {}, 0};
    MeasuredRow psn{"PSN", {}, {}, 0};
    MeasuredRow ccc{"CCC", {}, {}, 0};
    MeasuredRow otn{"OTN", {}, {}, 0};
    MeasuredRow otc{"OTC", {}, {}, 0};
    MeasuredRow fattree{"fat-tree", {}, {}, 0};
    MeasuredRow d2dmot{"D2D-MoT", {}, {}, 0};

    // The paper's five networks plus two registry challengers: a
    // two-layer fat-tree and the MoT NoC with diametrical links.
    const std::vector<std::pair<const char *, MeasuredRow *>> nets{
        {"mesh", &mesh}, {"psn", &psn}, {"ccc", &ccc}, {"otn", &otn},
        {"otc", &otc}, {"fattree", &fattree}, {"d2d-mot", &d2dmot}};
    for (std::size_t n : kSweep) {
        auto v = randomValues(n, 42 + n);
        auto sort = [&](topo::Machine &m) { return m.runSort(v); };
        for (auto [net, row] : nets)
            registryRow(*row, net, topo::Algo::Sort, n,
                        vlsi::DelayModel::Logarithmic, sort);
    }

    printMeasured({mesh, psn, ccc, otn, otc, fattree, d2dmot});

    // The baselines store O(N) words, so they can sweep much further;
    // the asymptotic exponents separate cleanly out here.
    MeasuredRow mesh_x{"mesh (to 64K)", {}, {}, 0};
    MeasuredRow psn_x{"PSN (to 64K)", {}, {}, 0};
    MeasuredRow ccc_x{"CCC (to 64K)", {}, {}, 0};
    const std::vector<std::pair<const char *, MeasuredRow *>> nets_x{
        {"mesh", &mesh_x}, {"psn", &psn_x}, {"ccc", &ccc_x}};
    for (std::size_t n : {4096, 16384, 65536}) {
        auto v = randomValues(n, 17 + n);
        auto sort = [&](topo::Machine &m) { return m.runSort(v); };
        for (auto [net, row] : nets_x)
            registryRow(*row, net, topo::Algo::Sort, n,
                        vlsi::DelayModel::Logarithmic, sort);
    }
    std::printf("\nExtended baseline sweep (N = 4096...65536):\n");
    printMeasured({mesh_x, psn_x, ccc_x});

    std::printf("\nShape checks at N = %zu:\n", kSweep.back());
    std::printf("  OTN time / OTC time       = %.2f (paper: Theta(1))\n",
                otn.times.back() / otc.times.back());
    std::printf("  OTN area / OTC area       = %.1f (paper: "
                "Theta(log^2 N) = %.0f)\n",
                otn.area / otc.area,
                std::pow(std::log2(double(kSweep.back())), 2));
    std::printf("  mesh time / OTC time      = %.1f (paper: "
                "sqrt(N)/log^2 N, grows)\n",
                mesh.times.back() / otc.times.back());
    std::printf("  PSN time / OTN time       = %.2f (paper: "
                "Theta(log N))\n",
                psn.times.back() / otn.times.back());
    std::printf("  fat-tree time / OTN time  = %.2f (cross-block "
                "spine wires pay wire delay)\n",
                fattree.times.back() / otn.times.back());
    std::printf("  D2D-MoT area / OTN area   = %.3f (a NoC skeleton, "
                "not a sorter chip)\n",
                d2dmot.area / otn.area);
}

} // namespace

int
main()
{
    printTables();
}
