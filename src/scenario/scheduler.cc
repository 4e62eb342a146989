#include "scenario/scheduler.hh"

#include <cassert>

namespace ot::scenario {

// The deterministic-replay story assumes ranking is a pure function
// of (kind, queue, served).  The signature guards it: `kind` is a
// value and `queue`/`served` are const references, so a write fails
// to compile; EngineTest.RepeatRunsAreIdentical catches hidden static
// state, and otcheck's determinism rules cover entropy.
std::size_t
pickNext(SchedulerKind kind, const std::vector<QueueJob> &queue,
         const std::vector<vlsi::ModelTime> &served)
{
    assert(!queue.empty() && "scheduler: empty queue");
    // Strict-weak "starts before" between two queued jobs; falls
    // through to the job index, so the order is always total.
    auto before = [&](const QueueJob &a, const QueueJob &b) {
        switch (kind) {
          case SchedulerKind::Fifo:
            break; // arrival order == job index order
          case SchedulerKind::Sjf:
            if (a.estimate != b.estimate)
                return a.estimate < b.estimate;
            break;
          case SchedulerKind::FairShare: {
            vlsi::ModelTime sa = served[a.client];
            vlsi::ModelTime sb = served[b.client];
            if (sa != sb)
                return sa < sb;
            break;
          }
          case SchedulerKind::Edf:
            if (a.deadline != b.deadline)
                return a.deadline < b.deadline;
            break;
        }
        return a.job < b.job;
    };
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue.size(); ++i)
        if (before(queue[i], queue[best]))
            best = i;
    return best;
}

} // namespace ot::scenario
