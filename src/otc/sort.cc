#include "otc/sort.hh"

#include <algorithm>
#include <bit>
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
    // over the L rounds BP(q) meets every B(r) once, tie-broken on the
    // global indices i*L + q and j*L + r (the paper's modified step 3
    // of SORT-OTN).  L circulations restore B, so the data pass reads
    // B(r) in place and writes each rank count C(q) once.
    const std::uint64_t *a_plane = net.regPlane(Reg::A);
    const std::uint64_t *b_plane = net.regPlane(Reg::B);
    std::uint64_t *c_plane = net.regPlane(Reg::C);
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
            const std::size_t base = (i * k + j) * l;
            const std::uint64_t *a = a_plane + base;
            const std::uint64_t *b = b_plane + base;
            for (std::size_t q = 0; q < l; ++q) {
                const std::uint64_t av = a[q];
                const std::uint64_t ga = i * l + q;
                std::uint64_t count = 0;
                for (std::size_t r = 0; r < l; ++r) {
                    const std::uint64_t gb = j * l + r;
                    count += (av > b[r]) + ((av == b[r]) & (ga > gb));
                }
                c_plane[base + q] = count;
            }
        }
    }
    // The machine's steps: one base step zeroing C, then per round a
    // compare step and a VECTORCIRCULATE of B on every row.
    const ModelTime round_op = net.cost().bitSerialOp();
    net.chargeBaseOp(round_op);
    for (unsigned p = 0; p < l; ++p) {
        net.chargeBaseOp(round_op);
        net.parallelFor(k, [&](std::size_t i) {
            net.chargeVectorCirculate(Axis::Row, i);
        });
    }

    // Step 4: global ranks to every cycle of the row.
    net.parallelFor(k, [&](std::size_t i) {
        net.sumCycleToCycle(Axis::Row, i, CSel::all(), Reg::C, CSel::all(),
                            Reg::R);
    });

    // Step 5: L pipelined output beats; at beat p, port j emits the
    // value of rank p*K + j, found in column j's copy of its group.
    // Ranks are unique (the global-index tie-break), so one scatter
    // over the column's K*L words fills every beat; K is a power of
    // two, so rank % K and rank / K are a mask and a shift.
    const std::uint64_t *r_plane = net.regPlane(Reg::R);
    assert(std::has_single_bit(k));
    const unsigned k_log = static_cast<unsigned>(std::countr_zero(k));
    net.parallelFor(k, [&](std::size_t j) {
        std::vector<std::uint64_t> &out = net.colStream(j);
        std::fill(out.begin(), out.end(), kNull);
        std::vector<bool> written(l, false);
        for (std::size_t i = 0; i < k; ++i) {
            const std::size_t base = (i * k + j) * l;
            for (std::size_t q = 0; q < l; ++q) {
                const std::uint64_t rank = r_plane[base + q];
                if ((rank & (k - 1)) != j)
                    continue;
                const std::uint64_t p = rank >> k_log;
                assert(p < l && "rank beyond the K*L capacity");
                assert(!written[p] && "two BPs share one rank");
                written[p] = true;
                out[p] = a_plane[base + q];
            }
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
