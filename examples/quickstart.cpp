/**
 * @file
 * Quickstart: build an orthogonal trees network, sort numbers on it,
 * and read off the quantities the paper's tables are made of — model
 * time, chip area and AT^2 — under two VLSI delay models.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>
#include <iostream>

#include "orthotree/orthotree.hh"

int
main()
{
    using namespace ot;

    // A 16-element problem on a (16 x 16)-OTN under Thompson's
    // logarithmic wire-delay model (the paper's default).
    const std::size_t n = 16;
    auto cost = defaultCostModel(n);
    otn::OrthogonalTreesNetwork net(n, cost);

    std::vector<std::uint64_t> values{42, 7,  19, 3,  55, 21, 0,  99,
                                      14, 63, 8,  77, 30, 5,  91, 11};

    // SORT-OTN (Section II-B of the paper): numbers enter at the row
    // roots, ranks are computed with tree reductions, and the sorted
    // sequence appears at the column roots.
    auto result = otn::sortOtn(net, values);

    std::printf("sorted:");
    for (auto v : result.sorted)
        std::printf(" %lu", static_cast<unsigned long>(v));
    std::printf("\n");

    // The machine tracked the VLSI cost of doing that:
    auto metrics = net.chipLayout().metrics();
    std::printf("model time   : %lu units (paper: O(log^2 N))\n",
                static_cast<unsigned long>(result.time));
    std::printf("chip area    : %lu lambda^2 (paper: O(N^2 log^2 N))\n",
                static_cast<unsigned long>(metrics.area()));
    std::printf("processors   : %lu (N^2 BPs + 2N(N-1) IPs)\n",
                static_cast<unsigned long>(metrics.processors));
    std::printf("longest wire : %lu lambda\n",
                static_cast<unsigned long>(metrics.longestWire));
    double at2 = static_cast<double>(metrics.area()) *
                 static_cast<double>(result.time) *
                 static_cast<double>(result.time);
    std::printf("area * time^2: %.3g\n", at2);

    // The topo registry builds every machine the paper compares, sized
    // for the problem.  The same sort under the constant-delay model
    // (Section VII-D): every tree traversal drops from O(log^2 N) to
    // O(log N).
    auto fast = topo::registry().build(topo::resolveSpec(
        "otn", topo::Algo::Sort, n, vlsi::DelayModel::Constant, false));
    auto result2 = fast->runSort(values);
    std::printf("\nconstant-delay model time: %lu units (vs %lu)\n",
                static_cast<unsigned long>(result2.time),
                static_cast<unsigned long>(result.time));

    // And on the area-efficient orthogonal tree cycles (Section V):
    // same asymptotic time, Theta(log^2 N) less silicon.
    auto otc = topo::registry().build(topo::resolveSpec(
        "otc", topo::Algo::Sort, n, vlsi::DelayModel::Logarithmic, false));
    auto otc_result = otc->runSort(values);
    const bool agree = otc_result.sorted == result.sorted;
    std::printf("OTC model time: %lu units; OTC sorts the same values: "
                "%s\n",
                static_cast<unsigned long>(otc_result.time),
                agree ? "yes" : "NO");

    // What the machine did, in counters:
    std::printf("\nprimitive counts:\n");
    net.stats().dump(std::cout, "  ");
    return agree ? 0 : 1;
}
