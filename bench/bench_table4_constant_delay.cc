/**
 * @file
 * Experiment E4 — Table IV: sorting under the constant-delay VLSI
 * model (Section VII-D).
 *
 * What must reproduce: the mesh is unchanged, PSN/CCC improve to
 * ~log^2 N, the OTN improves to ~log N, and the OTC loses its raison
 * d'etre ("under this new model there is no longer any need for the
 * OTC") — its time no longer beats the OTN while the OTN's area
 * advantage is gone.
 */

#include "bench_common.hh"

namespace {

using namespace ot;
using namespace ot::bench;

const std::vector<std::size_t> kSweep{64, 128, 256, 512, 1024};

void
printTables()
{
    section("E4 / Table IV: sorting, constant-delay model");
    printPaperTable(analysis::Problem::Sorting, vlsi::DelayModel::Constant,
                    {analysis::Network::Mesh, analysis::Network::Psn,
                     analysis::Network::Ccc, analysis::Network::Otn},
                    static_cast<double>(kSweep.back()));

    MeasuredRow mesh{"mesh", {}, {}, 0};
    MeasuredRow psn{"PSN", {}, {}, 0};
    MeasuredRow ccc{"CCC", {}, {}, 0};
    MeasuredRow otn{"OTN", {}, {}, 0};
    const std::vector<std::pair<const char *, MeasuredRow *>> nets{
        {"mesh", &mesh}, {"psn", &psn}, {"ccc", &ccc}, {"otn", &otn}};
    for (std::size_t n : kSweep) {
        auto v = randomValues(n, 4242 + n);
        auto sort = [&](topo::Machine &m) { return m.runSort(v); };
        for (auto [net, row] : nets)
            registryRow(*row, net, topo::Algo::Sort, n,
                        vlsi::DelayModel::Constant, sort);
    }

    printMeasured({mesh, psn, ccc, otn});

    // Model sensitivity (Section VII-D): the mesh's wires are
    // Theta(log N) short, so its log/constant ratio is Theta(log log N)
    // — essentially flat in N — while PSN/CCC/OTN wires are
    // Theta(N / log N) long and their ratio grows Theta(log N).  Show
    // the *growth* across two sizes.
    std::printf("\nDelay-model sensitivity "
                "(T_log-delay / T_constant-delay):\n");
    std::printf("  %-5s %10s %10s   expectation\n", "net", "N=256",
                "N=16384");
    auto ratio_at = [](const char *net, std::size_t n) {
        auto v = randomValues(n, 4242 + n);
        auto sort = [&](topo::Machine &m) { return m.runSort(v); };
        MeasuredRow row;
        for (auto model :
             {vlsi::DelayModel::Logarithmic, vlsi::DelayModel::Constant})
            registryRow(row, net, topo::Algo::Sort, n, model, sort);
        return row.times[0] / row.times[1];
    };
    std::printf("  %-5s %10.2f %10.2f   ~flat (Theta(log log N))\n",
                "mesh", ratio_at("mesh", 256), ratio_at("mesh", 16384));
    std::printf("  %-5s %10.2f %10.2f   grows (Theta(log N))\n", "PSN",
                ratio_at("psn", 256), ratio_at("psn", 16384));
    std::printf("  %-5s %10.2f %10.2f   grows (Theta(log N))\n", "CCC",
                ratio_at("ccc", 256), ratio_at("ccc", 16384));
    std::printf("  %-5s %10.2f %10.2f   grows (Theta(log N))\n", "OTN",
                ratio_at("otn", 256), ratio_at("otn", 1024));
}

} // namespace

int
main()
{
    printTables();
}
