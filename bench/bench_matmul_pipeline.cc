/**
 * @file
 * Experiment E7 — Section III-A: pipelined matrix multiplication.
 *
 * The paper's claims: the full product takes O(N log N + log^2 N)
 * total, "the first row appearing O(log^2 N) time after A_0 is input
 * and successive rows being separated by O(log N) units of time".
 * This bench measures first-row latency, the inter-row beat, the
 * pipelined total, and the speed-up over running N unpipelined
 * vector products.
 */

#include "bench_common.hh"

namespace {

using namespace ot;
using namespace ot::bench;

linalg::IntMatrix
randomMatrix(std::size_t n, std::uint64_t limit, std::uint64_t seed)
{
    sim::Rng rng(seed);
    linalg::IntMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            m(i, j) = rng.uniform(0, limit - 1);
    return m;
}

vlsi::CostModel
matCost(std::size_t n)
{
    unsigned bits = vlsi::logCeilAtLeast1(n * 49 + 1) + 2;
    return {vlsi::DelayModel::Logarithmic, vlsi::WordFormat(bits)};
}

void
printTables()
{
    section("E7 / Section III-A: pipelined matrix multiplication");

    analysis::TextTable t({"N", "first row", "row beat", "total",
                           "unpipelined", "speedup", "log^2 N", "N log N"});
    std::vector<double> ns, totals;
    for (std::size_t n : {8, 16, 32, 64}) {
        auto a = randomMatrix(n, 7, 100 + n);
        auto b = randomMatrix(n, 7, 200 + n);
        auto cost = matCost(n);

        otn::OrthogonalTreesNetwork net(n, cost);
        auto r = otn::matMulPipelined(net, a, b);
        if (r.product != linalg::matMul(a, b))
            std::abort();

        // Unpipelined: one full vector product per row (no overlap).
        otn::OrthogonalTreesNetwork net2(n, cost);
        net2.loadBase(otn::Reg::B, b);
        vlsi::ModelTime t0 = net2.now();
        for (std::size_t i = 0; i < n; ++i)
            otn::vecMatMulOtn(net2, a.row(i));
        double unpiped = static_cast<double>(net2.now() - t0);

        double dn = static_cast<double>(n);
        double l = std::log2(dn);
        ns.push_back(dn);
        totals.push_back(static_cast<double>(r.time));
        t.addRow({std::to_string(n),
                  analysis::formatQuantity(
                      static_cast<double>(r.firstRowLatency)),
                  analysis::formatQuantity(
                      static_cast<double>(r.rowInterval)),
                  analysis::formatQuantity(static_cast<double>(r.time)),
                  analysis::formatQuantity(unpiped),
                  analysis::formatRatio(
                      unpiped / static_cast<double>(r.time)),
                  analysis::formatQuantity(l * l),
                  analysis::formatQuantity(dn * l)});
    }
    std::printf("%s", t.str().c_str());

    auto fit = analysis::fitPowerLaw(ns, totals);
    std::printf("\npipelined total ~ %s (paper: N log N + log^2 N, "
                "near-linear; R^2 = %.4f)\n",
                analysis::formatExponent("N", fit.exponent).c_str(),
                fit.r2);
    std::printf("row beat equals the word separation Theta(log N); "
                "speedup approaches log N as N grows.\n");
}

} // namespace

int
main()
{
    printTables();
}
