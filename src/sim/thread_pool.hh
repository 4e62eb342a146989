/**
 * @file
 * A small fixed-size host thread pool for the batch farm.
 *
 * The one threaded path in the simulator is the BatchEngine's host
 * phase (workload/engine.hh), reached through ChainEngine::hostFor:
 * whole instances run on separate machines, one contiguous block of
 * farm shards per lane.  The pool is deliberately work-stealing-free:
 * every worker runs exactly one block and the caller joins at the
 * end.  That static schedule only balances the lanes; determinism
 * comes from the farm replaying its accounting sequentially after
 * the join.
 *
 * One job runs at a time (callers serialize on the job mutex); nested
 * `run` calls from inside a worker fall back to running all lanes
 * inline on the calling thread.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ot::sim {

class ThreadPool
{
  public:
    ThreadPool() = default;
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Process-wide pool shared by every batch farm.  Workers are
     * spawned lazily, so a program that never runs a farm on more
     * than one host thread never creates any.
     */
    static ThreadPool &shared();

    /**
     * Host-thread count requested by the environment: the value of
     * OT_HOST_THREADS if set to a positive integer, else
     * std::thread::hardware_concurrency() (min 1).
     */
    static unsigned defaultThreads();

    /**
     * Run `fn(lane)` for every lane in [0, lanes).  Lane 0 executes on
     * the calling thread; lanes 1..lanes-1 on pool workers.  Blocks
     * until all lanes finish.  When called from inside a running job —
     * whether from a worker lane or from lane 0 on the original caller —
     * all lanes run inline, sequentially, on the calling thread.
     */
    void run(unsigned lanes, const std::function<void(unsigned)> &fn);

    /** Workers currently spawned (for tests). */
    std::size_t workerCount();

  private:
    void workerLoop(unsigned id);
    void ensureWorkers(unsigned n);

    std::mutex _jobMutex; // serializes concurrent run() callers

    std::mutex _m;
    std::condition_variable _wake;
    std::condition_variable _done;
    std::vector<std::thread> _workers;
    const std::function<void(unsigned)> *_fn = nullptr;
    unsigned _lanes = 0;
    unsigned _pending = 0;
    std::uint64_t _epoch = 0;
    bool _stop = false;
};

} // namespace ot::sim
