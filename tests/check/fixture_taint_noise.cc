// otcheck:fixture-path src/analysis/fixture_taint_noise.cc
//
// Taint-source fixture: host-side analysis helper that calls a
// banned nondeterminism primitive.  src/analysis is outside the
// determinism scope, so the flat determinism rule stays silent here —
// the interprocedural taint rule is what carries this fact to any
// determinism-scope caller.  fixtureMixHash is the clean sibling the
// good sink fixture calls.
#include <cstdint>
#include <cstdlib>

std::uint64_t
fixtureRawNoise()
{
    return static_cast<std::uint64_t>(std::rand());
}

std::uint64_t
fixtureMixHash(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
}
