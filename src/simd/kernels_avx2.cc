// otcheck:hotpath — batch kernel bodies; keep allocation-free
/**
 * @file
 * AVX2 kernel table.  This is the only translation unit compiled with
 * -mavx2; callers must check backendAvailable(Backend::Avx2) before
 * routing through this table.
 */

#include "simd/kernels.hh"

#include "simd/kernels_generic.hh"
#include "simd/vec_avx2.hh"

namespace ot::simd {

namespace {

constexpr KernelTable kAvx2Table = {
    .fill = fillT<Avx2Vec>,
    .countNonzero = countNonzeroT<Avx2Vec>,
    .reduceSum = reduceSumT<Avx2Vec>,
    .reduceMin = reduceMinT<Avx2Vec>,
    .cmpRankRow = cmpRankRowT<Avx2Vec>,
    .selectEqIndexRow = selectEqIndexRowT<Avx2Vec>,
    .scatterEqIndexRow = scatterEqIndexRowT<Avx2Vec>,
    .pickEqIndexAccum = pickEqIndexAccumT<Avx2Vec>,
    .compexLinear = compexLinearT<Avx2Vec>,
    .rotateCycles = rotateCyclesT<Avx2Vec>,
    .addSatRow = addSatRowT<Avx2Vec>,
    .mulAccumRow = mulAccumRowT<Avx2Vec>,
    .andAccumRow = andAccumRowT<Avx2Vec>,
    .macTile = macTileT<Avx2Vec>,
    .macTileAbsent = macTileAbsentT<Avx2Vec>,
    .accumSumRow = accumSumRowT<Avx2Vec>,
    .accumMinRow = accumMinRowT<Avx2Vec>,
    .accumMinEqIndexRow = accumMinEqIndexRowT<Avx2Vec>,
};

} // namespace

const KernelTable &
avx2Kernels()
{
    return kAvx2Table;
}

} // namespace ot::simd
