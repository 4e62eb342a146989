/**
 * @file
 * Experiment E5 — Fig. 1 and the Section II-A area claim.
 *
 * Renders the (4 x 4)-OTN layout schematic (the paper's Fig. 1) and
 * sweeps the layout generator to verify area = Theta(N^2 log^2 N)
 * (optimal by Leighton's bound [16]), longest wire = Theta(N log N),
 * and the O(log^2 N) root-to-leaf first-bit latency that drives every
 * primitive's cost.
 */

#include "bench_common.hh"

namespace {

using namespace ot;
using namespace ot::bench;

void
printTables()
{
    section("E5 / Fig. 1: layout of the (4 x 4)-OTN");
    layout::OtnLayout fig1(4, 4);
    std::printf("%s\n", fig1.asciiArt().c_str());
    std::printf("O = base processor (16), * = internal processor "
                "(2 trees x 4 vectors x 3 IPs = 24)\n");

    section("E5: OTN area scaling (paper: Theta(N^2 log^2 N), optimal)");
    analysis::TextTable t({"N", "pitch", "side", "area", "area/(NlogN)^2",
                           "longest wire", "root path latency"});
    std::vector<double> ns, areas, longest;
    for (std::size_t n : {8, 16, 32, 64, 128, 256, 512}) {
        auto cost = defaultCostModel(n);
        layout::OtnLayout l(n, cost.word().bits());
        auto m = l.metrics();
        double dn = static_cast<double>(n);
        double denom = dn * std::log2(dn);
        ns.push_back(dn);
        areas.push_back(static_cast<double>(m.area()));
        longest.push_back(static_cast<double>(m.longestWire));
        t.addRow({std::to_string(n), std::to_string(l.pitch()),
                  analysis::formatQuantity(static_cast<double>(m.width)),
                  analysis::formatQuantity(static_cast<double>(m.area())),
                  analysis::formatQuantity(
                      static_cast<double>(m.area()) / (denom * denom)),
                  analysis::formatQuantity(
                      static_cast<double>(m.longestWire)),
                  std::to_string(cost.pathLatency(l.tree().pathEdges()))});
    }
    std::printf("%s", t.str().c_str());

    auto fit = analysis::fitPowerLaw(ns, areas);
    std::printf("\narea ~ %s (paper: N^2 up to log^2 factors; "
                "R^2 = %.4f)\n",
                analysis::formatExponent("N", fit.exponent).c_str(),
                fit.r2);
    auto wfit = analysis::fitPowerLaw(ns, longest);
    std::printf("longest wire ~ %s (paper: N log N)\n",
                analysis::formatExponent("N", wfit.exponent).c_str());
}

} // namespace

int
main()
{
    printTables();
}
