#include "sim/thread_pool.hh"

#include <cstdlib>
#include <exception>

namespace ot::sim {

namespace {
thread_local bool t_in_worker = false;
} // namespace

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool;
    return pool;
}

unsigned
ThreadPool::defaultThreads()
{
    if (const char *env = std::getenv("OT_HOST_THREADS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<unsigned>(v > 256 ? 256 : v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(_m);
        _stop = true;
    }
    _wake.notify_all();
    for (auto &w : _workers)
        w.join();
}

std::size_t
ThreadPool::workerCount()
{
    std::lock_guard<std::mutex> lk(_m);
    return _workers.size();
}

void
ThreadPool::ensureWorkers(unsigned n)
{
    std::lock_guard<std::mutex> lk(_m);
    while (_workers.size() < n) {
        unsigned id = static_cast<unsigned>(_workers.size());
        _workers.emplace_back([this, id] { workerLoop(id); });
    }
}

void
ThreadPool::workerLoop(unsigned id)
{
    t_in_worker = true;
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(unsigned)> *fn = nullptr;
        std::exception_ptr *errors = nullptr;
        unsigned lanes = 0;
        {
            std::unique_lock<std::mutex> lk(_m);
            _wake.wait(lk, [&] {
                return _stop || (_epoch != seen && _fn != nullptr);
            });
            if (_stop)
                return;
            seen = _epoch;
            fn = _fn;
            errors = _errors;
            lanes = _lanes;
        }
        // Worker w runs lane w + 1; extra workers sit the job out.
        if (id + 1 < lanes) {
            runLane(*fn, id + 1, errors[id + 1]);
            std::lock_guard<std::mutex> lk(_m);
            if (--_pending == 0)
                _done.notify_one();
        }
    }
}

void
ThreadPool::runLane(const std::function<void(unsigned)> &fn, unsigned lane,
                    std::exception_ptr &error)
{
    try {
        fn(lane);
    } catch (...) {
        error = std::current_exception();
    }
}

void
ThreadPool::run(unsigned lanes, const std::function<void(unsigned)> &fn)
{
    if (lanes == 0)
        return;
    if (lanes == 1) {
        fn(0);
        return;
    }
    std::vector<std::exception_ptr> errors(lanes);
    if (t_in_worker) {
        for (unsigned t = 0; t < lanes; ++t)
            runLane(fn, t, errors[t]);
    } else {
        std::lock_guard<std::mutex> job(_jobMutex);
        ensureWorkers(lanes - 1);
        {
            std::lock_guard<std::mutex> lk(_m);
            _fn = &fn;
            _errors = errors.data();
            _lanes = lanes;
            _pending = lanes - 1;
            ++_epoch;
        }
        _wake.notify_all();
        // Mark the caller busy while it runs lane 0 so a nested run()
        // from the job body goes inline instead of self-deadlocking on
        // _jobMutex.  runLane never throws, so the flag is always
        // restored and the workers always joined.
        t_in_worker = true;
        runLane(fn, 0, errors[0]);
        t_in_worker = false;
        std::unique_lock<std::mutex> lk(_m);
        _done.wait(lk, [&] { return _pending == 0; });
        _fn = nullptr;
        _errors = nullptr;
    }
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace ot::sim
