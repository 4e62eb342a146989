/**
 * @file
 * Shared helpers for the per-table/figure bench binaries.
 *
 * Every bench binary takes no arguments and does three things:
 *   1. prints the paper's asymptotic table (via analysis::paperFormula)
 *      for reference,
 *   2. sweeps N on the simulated machines, printing measured model
 *      time / layout area / AT^2 and the fitted growth exponents, so
 *      the *shape* of each row can be checked against the paper, and
 *   3. ends with shape checks: ratios between rows that the paper
 *      predicts.
 *
 * The printout is deterministic model time and area, so each binary's
 * stdout is pinned byte for byte by bench/golden/<name>.txt (the
 * bench.<name> ctest).  Host time is perfbench's job.
 */

#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "orthotree/orthotree.hh"

namespace ot::bench {

/** Random values < n for an n-element sorting problem. */
inline std::vector<std::uint64_t>
randomValues(std::size_t n, std::uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<std::uint64_t> v(n);
    for (auto &x : v)
        x = rng.uniform(0, n - 1);
    return v;
}

/** Print a titled section. */
inline void
section(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** Print the paper's asymptotic table for one problem/model. */
inline void
printPaperTable(analysis::Problem problem, vlsi::DelayModel model,
                const std::vector<analysis::Network> &nets, double n)
{
    analysis::TextTable t({"network", "area", "time", "area*time^2"});
    for (auto net : nets) {
        auto a = analysis::paperFormula(net, problem, model, n);
        t.addRow({analysis::toString(net), analysis::formatQuantity(a.area),
                  analysis::formatQuantity(a.time),
                  analysis::formatQuantity(a.at2())});
    }
    std::printf("Paper formulas (constants = 1) at N = %.0f, %s:\n%s", n,
                vlsi::toString(model).c_str(), t.str().c_str());
}

/** One measured sweep row for the tables below. */
struct MeasuredRow
{
    std::string network;
    std::vector<double> ns;
    std::vector<double> times;
    double area = 0; // at the largest N
};

/**
 * The one way a bench row runs a registered (algo, net) pair: build
 * the machine topo::resolveSpec() picks for size n, let `run` call
 * the matching Machine::run*, and append N and the model time to
 * `row`.  The area is the run's own when it reports one (the Table II
 * OTC chip, the mesh's Cannon grid), else the machine's.  Returns the
 * run record for verification.
 */
template <class Run>
auto
registryRow(MeasuredRow &row, const std::string &net, topo::Algo algo,
            std::size_t n, vlsi::DelayModel model, Run &&run,
            bool scaled = false)
{
    auto m = topo::registry().build(
        topo::resolveSpec(net, algo, n, model, scaled));
    auto r = run(*m);
    row.ns.push_back(static_cast<double>(n));
    row.times.push_back(static_cast<double>(r.time));
    row.area = static_cast<double>(r.area ? r.area : m->area());
    return r;
}

/**
 * Print measured rows at the largest N plus fitted growth exponents
 * (in N and in log N) for each network's time.
 */
inline void
printMeasured(const std::vector<MeasuredRow> &rows)
{
    analysis::TextTable t({"network", "area@maxN", "time@maxN",
                           "area*time^2", "time fit (N)",
                           "time fit (logN)"});
    for (const auto &r : rows) {
        auto fit_n = analysis::fitPowerLaw(r.ns, r.times);
        auto fit_l = analysis::fitPowerLawInLogN(r.ns, r.times);
        double tmax = r.times.back();
        t.addRow({r.network, analysis::formatQuantity(r.area),
                  analysis::formatQuantity(tmax),
                  analysis::formatQuantity(r.area * tmax * tmax),
                  analysis::formatExponent("N", fit_n.exponent),
                  analysis::formatExponent("logN", fit_l.exponent)});
    }
    std::printf("Measured (model time units, layout lambda^2):\n%s",
                t.str().c_str());
}

} // namespace ot::bench
