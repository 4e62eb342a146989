/**
 * @file
 * Arithmetic on the orthogonal trees: integer multiplication (the
 * Capello & Steiglitz application the paper's introduction cites) and
 * the Section IV DFT, both on the same fabric.
 *
 * Run: ./build/examples/arithmetic_dft
 */

#include <cstdio>

#include "orthotree/orthotree.hh"

int
main()
{
    using namespace ot;

    // --- Integer multiplication: convolution + carries ---------------
    std::printf("integer multiplication on a (2w x 2w)-OTN "
                "(orthogonal forest, [8]):\n");
    struct Case
    {
        std::uint64_t a, b;
        unsigned bits;
    };
    const Case cases[] = {
        {12, 10, 4},
        {201, 174, 8},
        {60001, 54321, 16},
        {(1u << 24) - 7, (1u << 24) - 11, 24},
    };
    bool products_ok = true;
    for (const auto &c : cases) {
        auto r = otn::integerMultiplyOtn(c.a, c.b, c.bits);
        products_ok = products_ok && r.product == c.a * c.b;
        std::printf("  %10lu * %10lu = %20lu  (%2u-bit, model time "
                    "%6lu, %u carry passes) %s\n",
                    static_cast<unsigned long>(c.a),
                    static_cast<unsigned long>(c.b),
                    static_cast<unsigned long>(r.product), c.bits,
                    static_cast<unsigned long>(r.time), r.carryPasses,
                    r.product == c.a * c.b ? "ok" : "WRONG");
    }
    std::printf("  time grows polylogarithmically in the operand "
                "width.\n");

    // --- DFT: spectral analysis of a noisy tone ----------------------
    std::printf("\n256-point DFT on a (16 x 16)-OTN (Section IV-B):\n");
    const std::size_t k = 16, n = k * k;
    sim::Rng rng(11);
    std::vector<linalg::Complex> x(n);
    const double tone_bin = 12.0;
    for (std::size_t t = 0; t < n; ++t) {
        double phase = 2.0 * 3.14159265358979 * tone_bin *
                       static_cast<double>(t) / static_cast<double>(n);
        x[t] = std::cos(phase) + 0.1 * (rng.uniformReal() - 0.5);
    }

    auto cost = defaultCostModel(n);
    otn::OrthogonalTreesNetwork net(k, cost);
    auto r = otn::dftOtn(net, x);

    // Find the loudest positive-frequency bin.
    std::size_t best = 1;
    for (std::size_t b = 1; b < n / 2; ++b)
        if (std::abs(r.spectrum[b]) > std::abs(r.spectrum[best]))
            best = b;
    std::printf("  loudest bin: %zu (expected %.0f), |X| = %.1f\n", best,
                tone_bin, std::abs(r.spectrum[best]));
    std::printf("  model time: %lu units over %u butterfly stages\n",
                static_cast<unsigned long>(r.time), r.stages);
    double err =
        linalg::maxAbsDiff(r.spectrum, linalg::dftNaive(x));
    std::printf("  max deviation from the naive DFT: %.2e\n", err);

    // --- The machine's ledger ----------------------------------------
    std::printf("\nwhere the time went:\n");
    for (const auto &[phase, t] : net.acct().phaseTimes())
        std::printf("  %-12s %8lu units\n", phase.c_str(),
                    static_cast<unsigned long>(t));
    const bool ok = products_ok &&
                    best == static_cast<std::size_t>(tone_bin) && err < 1e-6;
    return ok ? 0 : 1;
}
