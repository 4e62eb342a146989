/**
 * @file
 * Model-time event tracing for the network simulators.
 *
 * The TimeAccountant and StatSet report end-of-run totals; the Tracer
 * records *where inside a run* the model time went, as a stream of
 * structured events stamped in model time:
 *
 *  - Span    — one network primitive (a ROOTTOLEAF, a CYCLETOROOT, a
 *              base step), with its tree address, word count and
 *              charged duration.  Spans from different iterations of
 *              one pardo overlap in model time — that *is* the
 *              parallelism the paper's max-of-chains rule expresses.
 *  - Charge  — one TimeAccountant::advance, i.e. one actual tick of
 *              the machine clock, tagged with the innermost phase.
 *              The Charge stream is the authoritative accounting
 *              track: its durations sum exactly to now().
 *  - PhaseBegin / PhaseEnd — the TimeAccountant phase stack, pushed
 *              and popped by sim::ScopedPhase.
 *
 * Determinism: the stream is recorded on the one thread that drives
 * the simulation.  Network pardo loops run sequentially, and the
 * batch farm replays its per-instance spans and charges after its
 * host phase, so the stream is bit-identical for every
 * OT_HOST_THREADS (test_workload.cc asserts this).
 *
 * Overhead: with no tracer attached the hooks are one pointer test.
 * The event buffer is bounded: once `capacity()` events are held,
 * further events are counted in `dropped()` and discarded — earlier
 * events are never overwritten, so long sweeps cannot exhaust memory
 * and a truncated trace is still a valid prefix.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "vlsi/delay.hh"

namespace ot::trace {

using vlsi::ModelTime;

/** What one trace event records. */
enum class EventKind : std::uint8_t {
    Span,       ///< a network primitive with a duration
    Charge,     ///< one TimeAccountant::advance (clock tick)
    PhaseBegin, ///< TimeAccountant::beginPhase
    PhaseEnd,   ///< TimeAccountant::endPhase
};

/** Tree axis of a span, or None for base / whole-machine operations. */
enum class TraceAxis : std::uint8_t { Row = 0, Col = 1, None = 2 };

/**
 * One structured trace event.  `cat` and `name` are static strings
 * (the instrumentation sites pass literals); `phase` carries the
 * dynamic phase name for Charge/PhaseBegin/PhaseEnd events.
 */
struct Event
{
    EventKind kind = EventKind::Span;
    TraceAxis axis = TraceAxis::None;
    bool charged = true;      ///< false inside runUncharged (pipedo) blocks
    ModelTime start = 0;      ///< model time the event begins
    ModelTime dur = 0;        ///< charged model time (0 for instants)
    const char *cat = "";     ///< subsystem: "otn", "otc", "sim"
    const char *name = "";    ///< primitive name; "" for phase/charge events
    std::string phase;        ///< phase name (Charge/PhaseBegin/PhaseEnd)
    std::int64_t tree = -1;   ///< tree index on `axis`, -1 if n/a
    std::uint32_t levels = 0; ///< tree height the op traverses
    std::uint64_t words = 0;  ///< words crossing the tree root port
};

/** Field-wise equality (names compared by content, not address). */
bool eventsEqual(const Event &a, const Event &b);

/**
 * Collects the event stream of one run.
 *
 * Single-owner: record() may only be called from the thread driving
 * the simulation.  Off by default — construct, setEnabled(true),
 * attach with net.setTracer(&tracer).
 */
class Tracer
{
  public:
    static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

    explicit Tracer(std::size_t capacity = kDefaultCapacity)
        : _capacity(capacity)
    {
    }

    bool enabled() const { return _enabled; }
    void setEnabled(bool on) { _enabled = on; }

    std::size_t capacity() const { return _capacity; }

    /** Events discarded because the buffer was full. */
    std::uint64_t dropped() const { return _dropped; }

    const std::vector<Event> &events() const { return _events; }

    /** Forget all recorded events and the drop count. */
    void
    clear()
    {
        _events.clear();
        _dropped = 0;
    }

    /** Append one event (bounded; drops and counts when full). */
    void
    record(Event &&e)
    {
        if (_events.size() < _capacity)
            _events.push_back(std::move(e));
        else
            ++_dropped;
    }

    /** One clock tick of duration `dur` starting at `start`. */
    void
    recordCharge(ModelTime start, ModelTime dur, const std::string &phase)
    {
        Event e;
        e.kind = EventKind::Charge;
        e.cat = "sim";
        e.start = start;
        e.dur = dur;
        e.phase = phase;
        record(std::move(e));
    }

    /** Phase-stack push/pop at model time `t`. */
    void
    recordPhase(EventKind kind, ModelTime t, const std::string &phase)
    {
        Event e;
        e.kind = kind;
        e.cat = "sim";
        e.start = t;
        e.phase = phase;
        record(std::move(e));
    }

  private:
    bool _enabled = false;
    std::size_t _capacity;
    std::uint64_t _dropped = 0;
    std::vector<Event> _events;
};

} // namespace ot::trace
