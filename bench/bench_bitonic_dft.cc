/**
 * @file
 * Experiment E9 — Section IV: bitonic sort and DFT on a
 * (sqrt N x sqrt N)-OTN, one element per base processor.
 *
 * Paper claims: time O(sqrt(N) log N) on O(N log^2 N) area, with the
 * closing caveat that "an O(N^1/2) time bound can be obtained on a
 * mesh of equal area".  Our strict bit-serial accounting charges the
 * serialized word streams through the subtree roots, giving
 * Theta(sqrt(N) log^2 N) — one log above the paper (whose tighter
 * schedule lives in the thesis [21]); the dominant sqrt(N) growth and
 * the OTN-loses-to-the-mesh-here conclusion both reproduce.
 */

#include "bench_common.hh"

namespace {

using namespace ot;
using namespace ot::bench;

void
printTables()
{
    section("E9 / Section IV: bitonic sort on a (K x K)-OTN, N = K^2");

    analysis::TextTable t({"N", "K", "stages", "strict time",
                           "streamed [21]", "mesh time", "sqrt(N)*log N",
                           "strict/mesh"});
    MeasuredRow bito{"OTN bitonic (strict)", {}, {}, 0};
    MeasuredRow bito_s{"OTN bitonic (streamed)", {}, {}, 0};
    MeasuredRow mesh{"mesh bitonic", {}, {}, 0};
    for (std::size_t k : {8, 16, 32, 64}) {
        std::size_t n = k * k;
        auto v = randomValues(n, 60 + k);
        auto cost = defaultCostModel(n);

        otn::OrthogonalTreesNetwork net(k, cost);
        auto r = otn::bitonicSortOtn(net, v);
        std::vector<std::uint64_t> expect = v;
        std::sort(expect.begin(), expect.end());
        if (r.sorted != expect)
            std::abort();

        otn::OrthogonalTreesNetwork net2(k, cost);
        auto rs = otn::bitonicSortOtn(net2, v,
                                      otn::CompexSchedule::Streamed);
        if (rs.sorted != expect)
            std::abort();

        auto rm = registryRow(
            mesh, "mesh", topo::Algo::Sort, n, vlsi::DelayModel::Logarithmic,
            [&](topo::Machine &m) { return m.runSort(v); });

        double dn = static_cast<double>(n);
        double l = std::log2(dn);
        bito.ns.push_back(dn);
        bito.times.push_back(static_cast<double>(r.time));
        bito.area =
            static_cast<double>(net.chipLayout().metrics().area());
        bito_s.ns.push_back(dn);
        bito_s.times.push_back(static_cast<double>(rs.time));
        bito_s.area = bito.area;

        t.addRow({std::to_string(n), std::to_string(k),
                  std::to_string(r.stages),
                  analysis::formatQuantity(static_cast<double>(r.time)),
                  analysis::formatQuantity(static_cast<double>(rs.time)),
                  analysis::formatQuantity(static_cast<double>(rm.time)),
                  analysis::formatQuantity(std::sqrt(dn) * l),
                  analysis::formatRatio(static_cast<double>(r.time) /
                                        static_cast<double>(rm.time))});
    }
    std::printf("%s", t.str().c_str());

    auto fit = analysis::fitPowerLaw(bito.ns, bito.times);
    auto fit_s = analysis::fitPowerLaw(bito_s.ns, bito_s.times);
    std::printf("\nOTN bitonic time ~ %s strict vs ~ %s with the [21] "
                "streamed schedule (paper: sqrt(N) log N ~ N^0.5 x "
                "polylog)\n",
                analysis::formatExponent("N", fit.exponent).c_str(),
                analysis::formatExponent("N", fit_s.exponent).c_str());
    std::printf("Section IV-A's remark reproduces: the mesh of equal "
                "area is faster here (strict/mesh > 1 throughout).\n");

    section("E9 / Section IV-B: DFT on the same machine");
    analysis::TextTable t2({"N", "K", "stages", "DFT time",
                            "max |err| vs naive DFT"});
    MeasuredRow dft{"OTN DFT", {}, {}, 0};
    for (std::size_t k : {8, 16, 32}) {
        std::size_t n = k * k;
        sim::Rng rng(70 + k);
        std::vector<linalg::Complex> x(n);
        for (auto &c : x)
            c = linalg::Complex(rng.uniformReal() - 0.5,
                                rng.uniformReal() - 0.5);
        auto cost = defaultCostModel(n);
        otn::OrthogonalTreesNetwork net(k, cost);
        auto r = otn::dftOtn(net, x);
        double err = linalg::maxAbsDiff(r.spectrum, linalg::dftNaive(x));
        if (err > 1e-6)
            std::abort();
        dft.ns.push_back(static_cast<double>(n));
        dft.times.push_back(static_cast<double>(r.time));
        char errbuf[32];
        std::snprintf(errbuf, sizeof(errbuf), "%.2e", err);
        t2.addRow({std::to_string(n), std::to_string(k),
                   std::to_string(r.stages),
                   analysis::formatQuantity(static_cast<double>(r.time)),
                   errbuf});
    }
    std::printf("%s", t2.str().c_str());
    auto dfit = analysis::fitPowerLaw(dft.ns, dft.times);
    std::printf("\nDFT time ~ %s (same communication skeleton as the "
                "bitonic merge, Section IV-B)\n",
                analysis::formatExponent("N", dfit.exponent).c_str());
}

} // namespace

int
main()
{
    printTables();
}
