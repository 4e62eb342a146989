// otcheck:hotpath — batch kernel bodies; keep allocation-free
/**
 * @file
 * Scalar kernel table: the portable fallback and semantic reference.
 */

#include "simd/kernels.hh"

#include "simd/kernels_generic.hh"
#include "simd/vec_scalar.hh"

namespace ot::simd {

namespace {

constexpr KernelTable kScalarTable = {
    .fill = fillT<ScalarVec>,
    .countNonzero = countNonzeroT<ScalarVec>,
    .reduceSum = reduceSumT<ScalarVec>,
    .reduceMin = reduceMinT<ScalarVec>,
    .cmpRankRow = cmpRankRowT<ScalarVec>,
    .selectEqIndexRow = selectEqIndexRowT<ScalarVec>,
    .scatterEqIndexRow = scatterEqIndexRowT<ScalarVec>,
    .pickEqIndexAccum = pickEqIndexAccumT<ScalarVec>,
    .compexLinear = compexLinearT<ScalarVec>,
    .rotateCycles = rotateCyclesT<ScalarVec>,
    .addSatRow = addSatRowT<ScalarVec>,
    .mulAccumRow = mulAccumRowT<ScalarVec>,
    .andAccumRow = andAccumRowT<ScalarVec>,
    .macTile = macTileT<ScalarVec>,
    .macTileAbsent = macTileAbsentT<ScalarVec>,
    .accumSumRow = accumSumRowT<ScalarVec>,
    .accumMinRow = accumMinRowT<ScalarVec>,
    .accumMinEqIndexRow = accumMinEqIndexRowT<ScalarVec>,
};

} // namespace

const KernelTable &
scalarKernels()
{
    return kScalarTable;
}

} // namespace ot::simd
