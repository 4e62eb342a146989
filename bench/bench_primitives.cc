/**
 * @file
 * Experiment E11 — primitive-level micro-costs and the design-choice
 * ablations.
 *
 *  - Section II-B vs VII-D: ROOTTOLEAF costs O(log^2 N) under
 *    Thompson's model and O(log N) under constant delay.
 *  - Thompson's scaling [31]: tree ops drop to O(log N) under the
 *    logarithmic model too.
 *  - OTC cycle-length ablation (Section VI-B): pushing L from log N to
 *    log^2 N with one-bit BPs shrinks the Boolean-matmul chip without
 *    changing the O(log^2 N) stream time.
 */

#include "bench_common.hh"

namespace {

using namespace ot;
using namespace ot::bench;

void
printTables()
{
    section("E11: tree-primitive cost vs N across delay models");
    analysis::TextTable t({"N", "log-delay", "constant", "linear",
                           "scaled [31]", "log^2 N", "log N"});
    std::vector<double> ns, t_log, t_const, t_scaled;
    for (std::size_t n : {16, 64, 256, 1024, 4096, 16384}) {
        double dn = static_cast<double>(n);
        double l = std::log2(dn);
        auto mk = [&](vlsi::DelayModel m, bool scaled = false) {
            vlsi::CostModel cm(m, vlsi::WordFormat::forProblemSize(n),
                               scaled);
            layout::OtnLayout lay(n, cm.word().bits());
            return static_cast<double>(
                cm.wordAlongPath(lay.tree().pathEdges()));
        };
        double c_log = mk(vlsi::DelayModel::Logarithmic);
        double c_const = mk(vlsi::DelayModel::Constant);
        double c_lin = mk(vlsi::DelayModel::Linear);
        double c_scaled = mk(vlsi::DelayModel::Logarithmic, true);
        ns.push_back(dn);
        t_log.push_back(c_log);
        t_const.push_back(c_const);
        t_scaled.push_back(c_scaled);
        t.addRow({std::to_string(n), analysis::formatQuantity(c_log),
                  analysis::formatQuantity(c_const),
                  analysis::formatQuantity(c_lin),
                  analysis::formatQuantity(c_scaled),
                  analysis::formatQuantity(l * l),
                  analysis::formatQuantity(l)});
    }
    std::printf("%s", t.str().c_str());

    auto f_log = analysis::fitPowerLawInLogN(ns, t_log);
    auto f_const = analysis::fitPowerLawInLogN(ns, t_const);
    auto f_scaled = analysis::fitPowerLawInLogN(ns, t_scaled);
    std::printf("\nROOTTOLEAF ~ %s under Thompson (paper: log^2 N), "
                "~ %s constant-delay (paper: log N), "
                "~ %s with scaling [31] (paper: log N)\n",
                analysis::formatExponent("logN", f_log.exponent).c_str(),
                analysis::formatExponent("logN", f_const.exponent).c_str(),
                analysis::formatExponent("logN",
                                         f_scaled.exponent).c_str());

    section("E11: scaled-trees ablation on whole algorithms (N = 1024)");
    {
        std::size_t n = 1024;
        auto v = randomValues(n, 5);
        auto sort = [&](topo::Machine &m) { return m.runSort(v); };
        MeasuredRow row;
        auto t_plain = registryRow(row, "otn", topo::Algo::Sort, n,
                                   vlsi::DelayModel::Logarithmic, sort)
                           .time;
        auto t_scaledv = registryRow(row, "otn", topo::Algo::Sort, n,
                                     vlsi::DelayModel::Logarithmic, sort,
                                     /*scaled=*/true)
                             .time;
        std::printf("  SORT-OTN: plain %s vs scaled %s (%.2fx; paper: "
                    "Theta(log N) = %.0f)\n",
                    analysis::formatQuantity(
                        static_cast<double>(t_plain)).c_str(),
                    analysis::formatQuantity(
                        static_cast<double>(t_scaledv)).c_str(),
                    static_cast<double>(t_plain) /
                        static_cast<double>(t_scaledv),
                    std::log2(static_cast<double>(n)));
    }

    section("E11: OTC cycle-length ablation (Boolean matmul chips)");
    analysis::TextTable t2({"N", "L = log N area", "L = log^2 N area",
                            "saving"});
    for (std::size_t n : {64, 256, 1024}) {
        unsigned l = vlsi::logCeilAtLeast1(n);
        // Standard machine: N^2/log N^2 cycles per side, length log N.
        layout::OtcLayout std_chip(vlsi::ceilDiv(n * n, l), l, 1);
        // Section VI-B: length log^2 N with compact one-bit BPs.
        layout::OtcLayout big_chip(vlsi::ceilDiv(n * n, l * l), l * l, 1,
                                   /*compact_bps=*/true);
        double a1 = static_cast<double>(std_chip.metrics().area());
        double a2 = static_cast<double>(big_chip.metrics().area());
        t2.addRow({std::to_string(n), analysis::formatQuantity(a1),
                   analysis::formatQuantity(a2),
                   analysis::formatRatio(a1 / a2)});
    }
    std::printf("%s", t2.str().c_str());
    std::printf("\n(the paper: the longer cycles cut the Boolean-matmul "
                "chip to O(N^4/log^2 N) without changing time)\n");
}

} // namespace

int
main()
{
    printTables();
}
