/**
 * @file
 * Max-of-chains accountant for the networks' pardo semantics.
 *
 * Both network simulators (OTN and OTC) express the paper's
 * "for each i pardo" as a parallelFor that charges the *maximum* of
 * the per-iteration model-time chains, and "pipedo" as runUncharged.
 * ChainEngine owns that accounting.  The iterations themselves run
 * sequentially on the calling thread: `pardo` is a model-time rule,
 * and the engine charges it exactly at one host thread.
 *
 * The one host-parallel entry point is hostFor(), which the batch
 * farm (workload/engine.hh) uses to run whole instances on separate
 * machines.  It touches no clock, stat or trace state; the farm
 * replays its accounting through parallelFor afterwards, so model
 * time, stats and traces never depend on the host-thread count.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "sim/stats.hh"
#include "sim/time_accountant.hh"
#include "trace/tracer.hh"
#include "vlsi/delay.hh"

namespace ot::sim {

using vlsi::ModelTime;

class ChainEngine
{
  public:
    /**
     * @param acct         Clock the engine advances.
     * @param stats        Stat set counter() bumps land in.
     * @param host_threads Width of hostFor(): 0 =
     *                     ThreadPool::defaultThreads() (the
     *                     OT_HOST_THREADS switch), 1 = inline.
     *                     parallelFor never uses host threads.
     */
    ChainEngine(TimeAccountant &acct, StatSet &stats,
                unsigned host_threads = 1);

    ChainEngine(const ChainEngine &) = delete;
    ChainEngine &operator=(const ChainEngine &) = delete;

    /**
     * Charge model time: to the innermost parallel section's chain if
     * one is open, else to the clock.
     */
    void charge(ModelTime dt);

    /** Stat counter in the engine's stat set. */
    Counter &counter(const std::string &name) { return _stats.counter(name); }

    /**
     * Attach a tracer for the primitive spans recorded through
     * traceSpan().  The caller usually attaches the same tracer to the
     * TimeAccountant so the charge stream rides along.  nullptr
     * detaches.
     */
    void setTracer(trace::Tracer *tracer) { _tracer = tracer; }
    trace::Tracer *tracer() const { return _tracer; }

    /** Addressing/args of one traced primitive span. */
    struct SpanArgs
    {
        trace::TraceAxis axis = trace::TraceAxis::None;
        std::int64_t tree = -1;
        std::uint32_t levels = 0;
        std::uint64_t words = 0;
    };

    /**
     * Record one primitive span of duration `dur` starting at the
     * current model-time offset (clock + enclosing chains + chain so
     * far).  Call *before* the matching charge(dur).  No-op without an
     * enabled tracer.
     */
    void traceSpan(const char *cat, const char *name, ModelTime dur,
                   const SpanArgs &args);

    /**
     * Max-of-chains parallel loop: runs body(0..count-1) in order on
     * the calling thread and charges the longest iteration chain.
     * Nested loops compose into the enclosing chain.  Returns the
     * charged cost.
     */
    ModelTime parallelFor(std::size_t count,
                          const std::function<void(std::size_t)> &body);

    /** One primitive of a replayed pardo iteration (see replayPardo). */
    struct ReplayStep
    {
        Counter *counter;   ///< gains one per iteration
        const char *name;   ///< span name; nullptr = counter only
        ModelTime dur;      ///< charged per iteration
        SpanArgs args;      ///< span addressing; `tree` is the iteration
    };

    /**
     * The accounting of parallelFor(count, body) in which iteration k
     * runs the same `chain` of primitives on tree k, without running
     * body: each step's counter gains `count`, each named step is
     * traced once per tree at the offsets the loop would stamp (only
     * with an enabled tracer), and the chain — the max of `count`
     * equal chains — is charged once.  Batch primitives call this
     * after moving the data of all trees at once.  Returns the
     * charged cost.
     */
    ModelTime replayPardo(std::size_t count, const char *cat,
                          std::span<const ReplayStep> chain);

    /** Run body with the clock stopped; return what it would charge. */
    ModelTime runUncharged(const std::function<void()> &body);

    /**
     * Run body(k) once for every k in [0, count) on up to
     * host_threads pool lanes.  Lanes claim indices one at a time, in
     * increasing order, from a shared counter until none are left, so
     * no lane idles while another holds unstarted work.  Which lane
     * runs which index is not fixed.  Pure host dispatch: bodies must
     * not charge, count or trace through this engine, and iterations
     * must touch disjoint state.  An exception from a body stops only
     * its lane; the others drain the counter, and the exception of
     * the lowest-numbered lane that threw is rethrown after the join.
     */
    void hostFor(std::size_t count,
                 const std::function<void(std::size_t)> &body) const;

  private:
    /** Record one span starting at model time `start`. */
    void recordSpan(const char *cat, const char *name, ModelTime dur,
                    const SpanArgs &args, ModelTime start);

    TimeAccountant &_acct;
    StatSet &_stats;
    unsigned _threads;
    trace::Tracer *_tracer = nullptr;

    // Open parallel sections (parallelFor / runUncharged).
    unsigned _parallelDepth = 0;
    ModelTime _chainAccum = 0;
    ModelTime _traceBase = 0;     // model-time offset of _chainAccum's start
    unsigned _unchargedDepth = 0; // runUncharged nesting
};

} // namespace ot::sim
