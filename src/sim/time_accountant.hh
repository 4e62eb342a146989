/**
 * @file
 * Model-time bookkeeping for the network simulators.
 *
 * The simulators in this repository execute *parallel* machines on a
 * sequential host.  Each network primitive (a ROOTTOLEAF broadcast, a
 * compare-exchange sweep, ...) is one parallel step whose duration is
 * computed by the CostModel; the TimeAccountant accumulates those
 * durations into the machine's total model time T, which is what the
 * paper's tables report (not host wall-clock).
 *
 * Phases let an algorithm attribute time to named sections ("rank",
 * "hook", "pointer-jump"), which the benches print to show where the
 * asymptotic terms come from.  A phase is opened only by a
 * ScopedPhase, so the compiler guarantees it is closed again.
 */

#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/tracer.hh"
#include "vlsi/delay.hh"

namespace ot::sim {

using vlsi::ModelTime;

/** Accumulates parallel-step durations into total model time. */
class TimeAccountant
{
  public:
    TimeAccountant() = default;

    /** Charge one parallel step of duration `dt`. */
    void
    advance(ModelTime dt)
    {
        ModelTime start = _now;
        _now += dt;
        ++_steps;
        if (!_phaseStack.empty())
            _phaseTimes[_phaseStack.back()] += dt;
        if (_tracer && _tracer->enabled())
            _tracer->recordCharge(
                start, dt,
                _phaseStack.empty() ? std::string() : _phaseStack.back());
    }

    /** Current model time. */
    ModelTime now() const { return _now; }

    /** Number of parallel steps charged so far. */
    std::uint64_t steps() const { return _steps; }

    /** Forget all accumulated time and phases. */
    void
    reset()
    {
        _now = 0;
        _steps = 0;
        _phaseUnderflows = 0;
        _phaseTimes.clear();
        _phaseStack.clear();
    }

    /** Phase closes that found the stack empty: only a reset() while a
     *  ScopedPhase is still alive gets there. */
    std::uint64_t phaseUnderflows() const { return _phaseUnderflows; }

    /** Phases currently open. */
    std::size_t phaseDepth() const { return _phaseStack.size(); }

    /** Per-phase accumulated model time. */
    const std::map<std::string, ModelTime> &
    phaseTimes() const
    {
        return _phaseTimes;
    }

    /**
     * Attach (or detach, with nullptr) a tracer; every advance emits a
     * Charge event and every phase open and close a phase marker.  The
     * tracer must outlive the accountant or be detached first.
     */
    void setTracer(trace::Tracer *tracer) { _tracer = tracer; }
    trace::Tracer *tracer() const { return _tracer; }

  private:
    // Only ScopedPhase opens and closes phases, so every phase closes
    // on every path out of its scope (early returns and exceptions
    // included): phase balance is a type rule, not a convention.
    friend class ScopedPhase;

    /** Enter a named phase; time advanced until endPhase is attributed
     *  to it (innermost phase only, so nested phases don't double
     *  count). */
    void
    beginPhase(const std::string &name)
    {
        _phaseStack.push_back(name);
        if (_tracer && _tracer->enabled())
            _tracer->recordPhase(trace::EventKind::PhaseBegin, _now, name);
    }

    /**
     * Leave the innermost phase.  Popping an empty stack (a reset()
     * under a live ScopedPhase) is asserted in debug builds and
     * otherwise counted in phaseUnderflows() and ignored, so
     * attribution stays well defined.
     */
    void
    endPhase()
    {
        assert(!_phaseStack.empty() &&
               "endPhase without matching beginPhase");
        if (_phaseStack.empty()) {
            ++_phaseUnderflows;
            return;
        }
        if (_tracer && _tracer->enabled())
            _tracer->recordPhase(trace::EventKind::PhaseEnd, _now,
                                 _phaseStack.back());
        _phaseStack.pop_back();
    }

    ModelTime _now = 0;
    std::uint64_t _steps = 0;
    std::uint64_t _phaseUnderflows = 0;
    trace::Tracer *_tracer = nullptr;
    std::map<std::string, ModelTime> _phaseTimes;
    std::vector<std::string> _phaseStack;
};

/** The one way to open a TimeAccountant phase: it closes when the
 *  scope does. */
class ScopedPhase
{
  public:
    ScopedPhase(TimeAccountant &acct, const std::string &name) : _acct(acct)
    {
        _acct.beginPhase(name);
    }

    ~ScopedPhase() { _acct.endPhase(); }

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

  private:
    TimeAccountant &_acct;
};

} // namespace ot::sim
