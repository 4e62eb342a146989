/**
 * @file
 * A small fixed-size host thread pool for the batch farm.
 *
 * The one threaded path in the simulator is the BatchEngine's host
 * phase (workload/engine.hh), reached through ChainEngine::hostFor:
 * each pool lane claims farm shards one at a time from a shared
 * counter, builds the shard's machine if the cache slot is still
 * empty, and runs the shard's instances on it.  The pool itself only
 * starts `lanes` bodies at once and joins them; which lane ran which
 * shard never shows, because the farm replays its accounting
 * sequentially after the join.
 *
 * One job runs at a time (callers serialize on the job mutex); nested
 * `run` calls from inside a worker fall back to running all lanes
 * inline on the calling thread.  An exception thrown by a lane is
 * caught there; every lane still runs to its end, and run() rethrows
 * the exception of the lowest-numbered lane that threw.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
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
     * If any lane throws, the other lanes still finish; run() then
     * rethrows the exception of the lowest-numbered lane that threw,
     * and the pool is ready for the next job.
     */
    void run(unsigned lanes, const std::function<void(unsigned)> &fn);

    /** Workers currently spawned (for tests). */
    std::size_t workerCount();

  private:
    void workerLoop(unsigned id);
    void ensureWorkers(unsigned n);

    /** fn(lane), with an escaping exception stored in `error`. */
    static void runLane(const std::function<void(unsigned)> &fn,
                        unsigned lane, std::exception_ptr &error);

    std::mutex _jobMutex; // serializes concurrent run() callers

    std::mutex _m;
    std::condition_variable _wake;
    std::condition_variable _done;
    std::vector<std::thread> _workers;
    const std::function<void(unsigned)> *_fn = nullptr;
    std::exception_ptr *_errors = nullptr; // one slot per lane
    unsigned _lanes = 0;
    unsigned _pending = 0;
    std::uint64_t _epoch = 0;
    bool _stop = false;
};

} // namespace ot::sim
