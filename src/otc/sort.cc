#include "otc/sort.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "simd/rank.hh"

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

    // Every step after the input leaves each cycle of a row (or a
    // column) the same stream, so the planes are shape-tagged vectors
    // (simd::Shape; word (i, j, q) at i*L + q of a row vector, j*L + q
    // of a column vector) and no plane word is written.  The data of
    // each step moves at once, then the step's per-tree primitives are
    // charged through their accounting halves, in the per-tree order.
    const std::size_t words = capacity * sizeof(std::uint64_t);

    // Step 1: A = own group in every cycle of the row: A(i, j, q) =
    // x(i*L + q), a row broadcast of the input streams.
    std::uint64_t *x = net.tagPlane(Reg::A, simd::Shape::RowConst);
    for (std::size_t i = 0; i < k; ++i)
        std::copy(net.rowStream(i).begin(), net.rowStream(i).end(),
                  x + i * l);
    net.parallelFor(k, [&](std::size_t i) {
        net.chargeRootToCycle(Axis::Row, i);
    });

    // Step 2: B = the column's group, streamed by column i's root from
    // the diagonal cycle: B(i, j, q) = x(j*L + q), a column broadcast.
    for (std::size_t i = 0; i < k; ++i)
        std::copy(x + i * l, x + (i + 1) * l, net.colStream(i).begin());
    std::memcpy(net.tagPlane(Reg::B, simd::Shape::ColConst), x, words);
    net.parallelFor(k, [&](std::size_t i) {
        net.chargeCycleToCycle(Axis::Col, i);
    });

    // Step 3: L compare-and-circulate rounds.  After p circulations,
    // B(q) of cycle (i, j) holds group element b_j((q + p) mod L), so
    // over the L rounds BP(q) meets every B(r) once, tie-broken on the
    // global indices i*L + q and j*L + r (the paper's modified step 3
    // of SORT-OTN), and L circulations restore B.  So C(i, j, q), the
    // number of x(j*L + r) that x(i*L + q) outranks, is a function of
    // A's and B's vectors: C is tagged RankCount with copies of them.
    std::uint64_t *c = net.tagPlane(Reg::C, simd::Shape::RankCount);
    std::memcpy(c, x, words);
    std::memcpy(c + capacity, x, words);
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

    // Step 4: global ranks to every cycle of the row.  Row i's root
    // sums C(i, j, q) over the K cycles j: the rank of x(i*L + q)
    // among all N words.  All of them come from one stable radix
    // order of x, with no pairwise compare (simd::rankCounts); the
    // kNull padding ranks last.
    std::uint64_t *r = net.tagPlane(Reg::R, simd::Shape::RowConst);
    simd::rankCounts(r, x, x, capacity);
    for (std::size_t i = 0; i < k; ++i)
        std::copy(r + i * l, r + (i + 1) * l, net.rowStream(i).begin());
    net.parallelFor(k, [&](std::size_t i) {
        net.chargeSumCycleToCycle(Axis::Row, i);
    });

    // Step 5: L pipelined output beats; at beat p, port j emits the
    // value of rank p*K + j, found in column j's copy of its group.
    // The N ranks are a permutation of [0, N) (the global-index
    // tie-break), so one scatter over them fills every beat of every
    // port; `taken` checks that no two elements share a rank.  K is a
    // power of two, so rank % K and rank / K are a mask and a shift.
    assert(std::has_single_bit(k));
    const unsigned k_log = static_cast<unsigned>(std::countr_zero(k));
    thread_local std::vector<std::uint8_t> taken;
    taken.assign(capacity, 0);
    for (std::size_t g = 0; g < capacity; ++g) {
        const std::uint64_t rank = r[g];
        assert(rank < capacity && "rank beyond the K*L capacity");
        assert(!taken[rank] && "two BPs share one rank");
        taken[rank] = 1;
        net.colStream(rank & (k - 1))[rank >> k_log] = x[g];
    }
    // Per column: one stream through the column tree, with the
    // in-cycle selection (move-to-D(0)) overlapped beat by beat.
    net.parallelFor(k, [&](std::size_t) {
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
