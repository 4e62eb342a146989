// otcheck:fixture-path src/sim/fixture_taint_table.cc
//
// Table sink fixture: the entropy source of fixture_taint_noise.cc
// escapes through a function-pointer table instead of a call.  Taking
// the address names no banned identifier, so this file checks clean;
// the defect is reported once, at the rand() call.
#include <cstdint>

std::uint64_t fixtureRawNoise();

using KernelFn = std::uint64_t (*)();

std::uint64_t
runFirstKernel()
{
    static const KernelFn kNoiseKernels[] = {&fixtureRawNoise};
    return kNoiseKernels[0]();
}
