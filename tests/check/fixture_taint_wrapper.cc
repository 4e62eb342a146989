// otcheck:fixture-path src/analysis/fixture_taint_wrapper.cc
//
// Taint-propagation fixture: an innocent-looking wrapper one hop
// from the source.  Nothing here mentions a banned identifier — the
// taint must flow fixtureJitter → fixtureRawNoise → rand
// through the call graph for the sink diagnostic to carry the full
// witness chain.
#include <cstdint>

std::uint64_t fixtureRawNoise();

std::uint64_t
fixtureJitter()
{
    return fixtureRawNoise() | 1u;
}
