// otcheck:fixture-path src/scenario/fixture_bad_sched_taint.cc
//
// Known-bad scheduler-purity fixture: the ranking function draws
// entropy through a wrapper two call-graph hops from a banned
// primitive.  The call site looks clean — only the interprocedural
// taint walk connects it to rand(), and the purity diagnostic
// must spell out the whole chain.  (The taint boundary rule fires on
// the same line: scenario is determinism scope.)  This file is
// checker input, never compiled.
#include <cstddef>
#include <cstdint>

std::uint64_t fixtureJitter();

// otcheck:pure
std::size_t
fixtureRankJittered(std::size_t queueDepth, std::size_t served)
{
    std::uint64_t r = served ^ fixtureJitter(); // expect: determinism-taint, sched-purity
    return static_cast<std::size_t>(r) % (queueDepth + 1);
}
