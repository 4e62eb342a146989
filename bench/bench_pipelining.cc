/**
 * @file
 * Experiment E10 — Section VIII point 4: pipelining problem streams
 * on the OTN.
 *
 * Paper claims: O(log N) problems in flight, a new sorted set every
 * O(log N) time units, pipelined AT^2 = O(N^2 log^4 N) — "the same as
 * the AT^2 performance of the OTC without using pipelining".
 */

#include "bench_common.hh"

namespace {

using namespace ot;
using namespace ot::bench;

void
printTables()
{
    section("E10 / Section VIII: pipelined sorting streams on the OTN");

    analysis::TextTable t({"N", "problems", "first latency", "beat",
                           "total", "serial total", "speedup",
                           "per-problem AT^2"});
    for (std::size_t n : {64, 256, 1024}) {
        unsigned depth = vlsi::logCeilAtLeast1(n); // log N problems
        std::vector<std::vector<std::uint64_t>> problems;
        for (unsigned p = 0; p < depth; ++p)
            problems.push_back(randomValues(n, 80 + p));
        auto cost = defaultCostModel(n);

        otn::OrthogonalTreesNetwork net(n, cost);
        auto r = otn::sortPipelineOtn(net, problems);
        for (unsigned p = 0; p < depth; ++p) {
            auto expect = problems[p];
            std::sort(expect.begin(), expect.end());
            if (r.sorted[p] != expect)
                std::abort();
        }

        otn::OrthogonalTreesNetwork serial(n, cost);
        for (const auto &p : problems)
            otn::sortOtn(serial, p);
        double serial_total = static_cast<double>(serial.now());

        double area =
            static_cast<double>(net.chipLayout().metrics().area());
        double per_problem_time =
            static_cast<double>(r.totalTime) / depth;
        t.addRow(
            {std::to_string(n), std::to_string(depth),
             analysis::formatQuantity(
                 static_cast<double>(r.firstLatency)),
             analysis::formatQuantity(
                 static_cast<double>(r.problemInterval)),
             analysis::formatQuantity(static_cast<double>(r.totalTime)),
             analysis::formatQuantity(serial_total),
             analysis::formatRatio(serial_total /
                                   static_cast<double>(r.totalTime)),
             analysis::formatQuantity(area * per_problem_time *
                                      per_problem_time)});
    }
    std::printf("%s", t.str().c_str());

    // Pipelined OTN vs unpipelined OTC AT^2 (the paper's punchline).
    std::printf("\nPipelined-OTN per-problem AT^2 vs plain OTC AT^2 at "
                "N = 1024:\n");
    std::size_t n = 1024;
    unsigned l = vlsi::logCeilAtLeast1(n);
    auto v = randomValues(n, 99);
    auto cost = defaultCostModel(n);
    MeasuredRow otc;
    registryRow(otc, "otc", topo::Algo::Sort, n,
                vlsi::DelayModel::Logarithmic,
                [&](topo::Machine &m) { return m.runSort(v); });
    double otc_at2 = otc.area * otc.times.back() * otc.times.back();

    std::vector<std::vector<std::uint64_t>> problems;
    for (unsigned p = 0; p < l; ++p)
        problems.push_back(randomValues(n, 300 + p));
    otn::OrthogonalTreesNetwork otn_net(n, cost);
    auto r_pipe = otn::sortPipelineOtn(otn_net, problems);
    double per_problem =
        static_cast<double>(r_pipe.totalTime) / problems.size();
    double otn_at2 =
        static_cast<double>(otn_net.chipLayout().metrics().area()) *
        per_problem * per_problem;
    std::printf("  pipelined OTN: %s   plain OTC: %s   ratio %.2f "
                "(paper: Theta(1) — both N^2 log^4 N)\n",
                analysis::formatQuantity(otn_at2).c_str(),
                analysis::formatQuantity(otc_at2).c_str(),
                otn_at2 / otc_at2);
}

} // namespace

int
main()
{
    printTables();
}
