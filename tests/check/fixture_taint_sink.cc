// otcheck:fixture-path src/scenario/fixture_taint_sink.cc
//
// Scheduler sink fixture: a model-time ranking function reaching the
// entropy source of fixture_taint_noise.cc through a wrapper call and
// a qualified call, plus a clean helper.  No call is resolved, so all
// of it checks clean: the source itself is the diagnostic.
#include <cstddef>
#include <cstdint>

std::uint64_t fixtureJitter();
std::uint64_t fixtureMixHash(std::uint64_t x);

std::size_t
fixtureRankJittered(std::size_t queueDepth, std::size_t served)
{
    std::uint64_t r = fixtureMixHash(served) ^ ::fixtureJitter();
    r ^= fixtureJitter();
    return static_cast<std::size_t>(r) % (queueDepth + 1);
}
