// otcheck:fixture-path src/graph/fixture_taint_wrapper.cc
//
// Wrapper fixture: an innocent-looking function one hop from the
// entropy source.  Nothing here mentions a banned identifier, so it
// checks clean; the defect is reported once, at the rand() call.
#include <cstdint>

std::uint64_t fixtureRawNoise();

std::uint64_t
fixtureJitter()
{
    return fixtureRawNoise() | 1u;
}
