#include "sim/chain_engine.hh"

#include <algorithm>
#include <atomic>

#include "sim/thread_pool.hh"

namespace ot::sim {

ChainEngine::ChainEngine(TimeAccountant &acct, StatSet &stats,
                         unsigned host_threads)
    : _acct(acct),
      _stats(stats),
      _threads(host_threads ? host_threads : ThreadPool::defaultThreads())
{
}

void
ChainEngine::charge(ModelTime dt)
{
    if (_parallelDepth > 0)
        _chainAccum += dt;
    else
        _acct.advance(dt);
}

ModelTime
ChainEngine::parallelFor(std::size_t count,
                         const std::function<void(std::size_t)> &body)
{
    // Every iteration starts at the same model-time offset (they
    // overlap), so trace stamps rebase to the offset at entry.
    ++_parallelDepth;
    ModelTime saved_chain = _chainAccum;
    ModelTime saved_base = _traceBase;
    _traceBase = saved_base + saved_chain;
    ModelTime longest = 0;
    for (std::size_t k = 0; k < count; ++k) {
        _chainAccum = 0;
        body(k);
        longest = std::max(longest, _chainAccum);
    }
    --_parallelDepth;
    _traceBase = saved_base;
    _chainAccum = saved_chain;
    charge(longest);
    return longest;
}

ModelTime
ChainEngine::replayPardo(std::size_t count, const char *cat,
                         std::span<const ReplayStep> chain)
{
    ModelTime chain_len = 0;
    if (count > 0) {
        for (const ReplayStep &step : chain) {
            *step.counter += count;
            chain_len += step.dur;
        }
        if (_tracer && _tracer->enabled()) {
            // parallelFor rebases every iteration to the offset at
            // entry; the chain then advances by each step's duration.
            const ModelTime base = _acct.now() + _traceBase + _chainAccum;
            for (std::size_t k = 0; k < count; ++k) {
                ModelTime offset = base;
                for (const ReplayStep &step : chain) {
                    if (step.name) {
                        SpanArgs args = step.args;
                        args.tree = static_cast<std::int64_t>(k);
                        recordSpan(cat, step.name, step.dur, args, offset);
                    }
                    offset += step.dur;
                }
            }
        }
    }
    charge(chain_len);
    return chain_len;
}

ModelTime
ChainEngine::runUncharged(const std::function<void()> &body)
{
    ++_parallelDepth;
    ModelTime saved = _chainAccum;
    ModelTime saved_base = _traceBase;
    _traceBase = saved_base + saved;
    _chainAccum = 0;
    ++_unchargedDepth;
    body();
    --_unchargedDepth;
    ModelTime would_charge = _chainAccum;
    _chainAccum = saved;
    _traceBase = saved_base;
    --_parallelDepth;
    return would_charge;
}

void
ChainEngine::hostFor(std::size_t count,
                     const std::function<void(std::size_t)> &body) const
{
    const unsigned lanes =
        static_cast<unsigned>(std::min<std::size_t>(_threads, count));
    // Each lane claims the next index until none are left, so a lane
    // that drew short iterations takes more of them.
    std::atomic<std::size_t> next{0};
    ThreadPool::shared().run(lanes, [&](unsigned) {
        for (std::size_t k = next++; k < count; k = next++)
            body(k);
    });
}

void
ChainEngine::traceSpan(const char *cat, const char *name, ModelTime dur,
                       const SpanArgs &args)
{
    if (_tracer && _tracer->enabled())
        recordSpan(cat, name, dur, args,
                   _acct.now() + _traceBase + _chainAccum);
}

void
ChainEngine::recordSpan(const char *cat, const char *name, ModelTime dur,
                        const SpanArgs &args, ModelTime start)
{
    trace::Event e;
    e.kind = trace::EventKind::Span;
    e.cat = cat;
    e.name = name;
    e.dur = dur;
    e.axis = args.axis;
    e.tree = args.tree;
    e.levels = args.levels;
    e.words = args.words;
    e.start = start;
    e.charged = _unchargedDepth == 0;
    _tracer->record(std::move(e));
}

} // namespace ot::sim
