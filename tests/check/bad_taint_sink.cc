// otcheck:fixture-path src/workload/fixture_bad_taint_sink.cc
//
// Known-bad determinism-taint fixture: a determinism-scope file
// calling a wrapper that is two call-graph hops away from a banned
// nondeterminism source.  The call site itself looks clean — only
// the interprocedural taint walk can connect it to rand().
#include <cstdint>

std::uint64_t fixtureJitter();

std::uint64_t
perturbSeed(std::uint64_t seed)
{
    return seed ^ fixtureJitter(); // expect: determinism-taint
}
