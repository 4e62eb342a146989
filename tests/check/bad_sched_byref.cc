// otcheck:fixture-path src/scenario/fixture_bad_sched_byref.cc
//
// Known-bad scheduler-purity fixture: ranking functions marked
// otcheck:pure that edit the queue they were asked to order — once
// directly, once through a helper whose mutation summary the call
// inherits.  Ranking must return the choice and let the scenario
// engine apply it — a ranking that updates state turns every
// comparison into a side effect.  This file is checker input, never
// compiled.
#include <cstddef>
#include <vector>

// otcheck:pure
std::size_t
fixtureRankAndDrop(std::vector<int> &queue, std::size_t served)
{
    queue.push_back(0); // expect: sched-purity
    return served % (queue.size() + 1);
}

void
fixtureDropFront(std::vector<int> &queue)
{
    queue.erase(queue.begin());
}

// otcheck:pure
std::size_t
fixtureRankViaHelper(std::vector<int> &queue, std::size_t served)
{
    fixtureDropFront(queue); // expect: sched-purity
    return served;
}
