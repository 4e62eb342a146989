// otcheck:hotpath — batch kernel bodies; keep allocation-free
/**
 * @file
 * NEON kernel table (aarch64 baseline Advanced SIMD).
 */

#include "simd/kernels.hh"

#include "simd/kernels_generic.hh"
#include "simd/vec_neon.hh"

namespace ot::simd {

namespace {

constexpr KernelTable kNeonTable = {
    .fill = fillT<NeonVec>,
    .countNonzero = countNonzeroT<NeonVec>,
    .reduceSum = reduceSumT<NeonVec>,
    .reduceMin = reduceMinT<NeonVec>,
    .cmpRankRow = cmpRankRowT<NeonVec>,
    .selectEqIndexRow = selectEqIndexRowT<NeonVec>,
    .scatterEqIndexRow = scatterEqIndexRowT<NeonVec>,
    .pickEqIndexAccum = pickEqIndexAccumT<NeonVec>,
    .compexLinear = compexLinearT<NeonVec>,
    .rotateCycles = rotateCyclesT<NeonVec>,
    .addSatRow = addSatRowT<NeonVec>,
    .mulAccumRow = mulAccumRowT<NeonVec>,
    .andAccumRow = andAccumRowT<NeonVec>,
    .macTile = macTileT<NeonVec>,
    .macTileAbsent = macTileAbsentT<NeonVec>,
    .accumSumRow = accumSumRowT<NeonVec>,
    .accumMinRow = accumMinRowT<NeonVec>,
    .accumMinEqIndexRow = accumMinEqIndexRowT<NeonVec>,
};

} // namespace

const KernelTable &
neonKernels()
{
    return kNeonTable;
}

} // namespace ot::simd
