// otcheck:fixture-path src/analysis/fixture_taint_noise.cc
//
// Entropy-source fixture: a host-side analysis helper that calls a
// banned nondeterminism primitive.  The determinism rule covers every
// src/ layer, so the call is flagged here, at the source, however
// many wrappers later carry the value into a model-time layer.
// fixtureMixHash is the clean sibling the sink fixture also calls.
#include <cstdint>
#include <cstdlib>

std::uint64_t
fixtureRawNoise()
{
    return static_cast<std::uint64_t>(std::rand()); // expect: determinism
}

std::uint64_t
fixtureMixHash(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    return x;
}
