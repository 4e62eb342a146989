#include "otc/sort.hh"

#include <cassert>

namespace ot::otc {

SortOtcResult
sortOtc(OtcNetwork &net, const std::vector<std::uint64_t> &values)
{
    const std::size_t k = net.k();
    const unsigned l = net.cycleLen();
    const std::size_t capacity = k * l;
    assert(values.size() <= capacity);

    ModelTime start = net.now();
    sim::ScopedPhase phase(net.acct(), "sort-otc");

    // Feed the input streams: port i carries values [i*L, (i+1)*L).
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t q = 0; q < l; ++q) {
            std::size_t g = i * l + q;
            std::uint64_t v = g < values.size() ? values[g] : kNull;
            assert(net.fitsWord(v));
            net.rowStream(i)[q] = v;
        }
    }

    // Step 1: A = own group in every cycle of the row.
    net.parallelFor(k, [&](std::size_t i) {
        net.rootToCycle(Axis::Row, i, CSel::all(), Reg::A);
    });

    // Step 2: B = the column's group (from the diagonal cycle).
    net.parallelFor(k, [&](std::size_t i) {
        net.cycleToCycle(Axis::Col, i, CSel::rowIs(i), Reg::A, CSel::all(),
                         Reg::B);
    });

    // Step 3: L compare-and-circulate rounds.  After p circulations,
    // B(q) of cycle (i, j) holds group element b_j((q + p) mod L), so
    // its global index is j*L + (q+p) mod L — the tie-break for
    // duplicates (the paper's modified step 3 of SORT-OTN).
    net.baseOp(net.cost().bitSerialOp(),
               [&](std::size_t i, std::size_t j, std::size_t q) {
                   net.reg(Reg::C, i, j, q) = 0;
               });
    for (unsigned p = 0; p < l; ++p) {
        net.baseOp(net.cost().bitSerialOp(),
                   [&](std::size_t i, std::size_t j, std::size_t q) {
                       std::uint64_t a = net.reg(Reg::A, i, j, q);
                       std::uint64_t b = net.reg(Reg::B, i, j, q);
                       std::uint64_t ga = i * l + q;
                       std::uint64_t gb = j * l + (q + p) % l;
                       if (a > b || (a == b && ga > gb))
                           ++net.reg(Reg::C, i, j, q);
                   });
        net.parallelFor(k, [&](std::size_t i) {
            net.vectorCirculate(Axis::Row, i, {Reg::B});
        });
    }

    // Step 4: global ranks to every cycle of the row.
    net.parallelFor(k, [&](std::size_t i) {
        net.sumCycleToCycle(Axis::Row, i, CSel::all(), Reg::C, CSel::all(),
                            Reg::R);
    });

    // Step 5: L pipelined output beats; at beat p, port j emits the
    // value of rank p*K + j, found in column j's copy of its group.
    net.parallelFor(k, [&](std::size_t j) {
        for (unsigned p = 0; p < l; ++p) {
            std::uint64_t rank = std::uint64_t{p} * k + j;
            std::uint64_t out = kNull;
            for (std::size_t i = 0; i < k; ++i)
                for (std::size_t q = 0; q < l; ++q)
                    if (net.reg(Reg::R, i, j, q) == rank)
                        out = net.reg(Reg::A, i, j, q);
            net.colStream(j)[p] = out;
        }
        // One stream through the column tree, with the in-cycle
        // selection (move-to-D(0)) overlapped beat by beat.
        net.charge(net.streamCost() + (l - 1) * net.circulateCost());
    });

    SortOtcResult result;
    result.sorted.resize(values.size());
    for (std::size_t g = 0; g < values.size(); ++g)
        result.sorted[g] = net.colStream(g % k)[g / k];
    result.time = net.now() - start;
    return result;
}

} // namespace ot::otc
