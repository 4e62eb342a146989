/**
 * @file
 * Ablation — why *orthogonal* trees?  (Section II-A: "the OTN is a
 * generalization of the tree network which has been studied
 * extensively [2], [3], [7]".)
 *
 * A single tree has bisection width 1: semigroup operations are as
 * fast as on the OTN's trees, but any computation that must exchange
 * Theta(N) distinct words serializes at the root.  This bench sorts
 * the same inputs on the single-tree machine (extract-min), the OTN
 * (SORT-OTN) and the mesh, and prints the time/area trade: the OTN
 * pays Theta(log^2 N) more area per element than the tree machine and
 * buys a Theta(N / polylog) speedup.
 *
 * A second table shows where the single tree is NOT worse: pure
 * reductions (COUNT/SUM/MIN), where both machines take one traversal.
 */

#include "bench_common.hh"

namespace {

using namespace ot;
using namespace ot::bench;

void
printTables()
{
    section("Ablation: one tree vs orthogonal trees (sorting)");
    analysis::TextTable t({"N", "tree time", "OTN time", "speedup",
                           "tree area", "OTN area", "area cost"});
    std::vector<double> ns, speedups;
    for (std::size_t n : {64, 128, 256, 512, 1024}) {
        auto v = randomValues(n, 90 + n);
        auto expect = v;
        std::sort(expect.begin(), expect.end());

        auto sort = [&](topo::Machine &m) { return m.runSort(v); };
        MeasuredRow tree, otn;
        if (registryRow(tree, "tree", topo::Algo::Sort, n,
                        vlsi::DelayModel::Logarithmic, sort)
                    .sorted != expect ||
            registryRow(otn, "otn", topo::Algo::Sort, n,
                        vlsi::DelayModel::Logarithmic, sort)
                    .sorted != expect)
            std::abort();
        double t_tree = tree.times.back(), a_tree = tree.area;
        double t_otn = otn.times.back(), a_otn = otn.area;

        ns.push_back(static_cast<double>(n));
        speedups.push_back(t_tree / t_otn);
        t.addRow({std::to_string(n), analysis::formatQuantity(t_tree),
                  analysis::formatQuantity(t_otn),
                  analysis::formatRatio(t_tree / t_otn),
                  analysis::formatQuantity(a_tree),
                  analysis::formatQuantity(a_otn),
                  analysis::formatRatio(a_otn / a_tree)});
    }
    std::printf("%s", t.str().c_str());

    auto fit = analysis::fitPowerLaw(ns, speedups);
    std::printf("\nspeedup grows ~ %s (one tree serializes Theta(N) "
                "words at its root; the OTN's 2N trees do not)\n",
                analysis::formatExponent("N", fit.exponent).c_str());

    section("Ablation: where one tree is enough (semigroup reductions)");
    analysis::TextTable t2({"N", "tree MIN-reduce", "OTN MIN-LEAFTOROOT",
                            "ratio"});
    for (std::size_t n : {64, 256, 1024}) {
        auto cost = defaultCostModel(n);
        topo::TreeMachine tree({.topo = "tree",
                                .n = n,
                                .wordBits = cost.word().bits()});
        const vlsi::ModelTime dt_tree = tree.reduceCost();
        otn::OrthogonalTreesNetwork net(n, cost);
        double dt_otn = static_cast<double>(net.treeReduceCost());
        t2.addRow({std::to_string(n),
                   analysis::formatQuantity(static_cast<double>(dt_tree)),
                   analysis::formatQuantity(dt_otn),
                   analysis::formatRatio(static_cast<double>(dt_tree) /
                                         dt_otn)});
    }
    std::printf("%s", t2.str().c_str());
    std::printf("\n(both are one combining traversal — the OTN's "
                "advantage is parallel *capacity*, not tree speed)\n");
}

} // namespace

int
main()
{
    printTables();
}
