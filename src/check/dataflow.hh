/**
 * @file
 * Interprocedural dataflow rules for otcheck: determinism taint and
 * scheduler purity.
 *
 * determinism-taint
 * -----------------
 * The flat determinism rule bans nondeterminism tokens *inside* the
 * lane-reachable layers, so a one-line wrapper in an unscoped layer
 * (`uint64_t jitter() { return rand(); }` in src/analysis)
 * laundered the ban: the wrapper's file is not scanned, and the
 * in-scope caller only mentions the innocent name `jitter`.  This
 * pass closes the hole: any function whose body uses a banned
 * identifier outside an allow(determinism) extent is a taint source;
 * taint propagates over call edges and function-pointer references
 * (an identifier naming a known definition without a call's `(` —
 * the KernelTable pattern) with the usual all-candidates convention;
 * and every call or reference from a determinism-scope file to a
 * fully-tainted, fully-out-of-scope candidate set is diagnosed with
 * the complete source→sink chain.
 *
 * In-scope sources are NOT re-diagnosed here — the flat rule already
 * flags the banned token itself; this rule only reports the boundary
 * crossing, so each defect surfaces exactly once.
 *
 * sched-purity
 * ------------
 * A function carrying the pure marker (the scenario ranking
 * functions) must be a pure ordering: no by-reference argument
 * mutation (checked through per-parameter mutation summaries over
 * the call graph, so a helper that writes for it is caught with a
 * cross-TU witness), no non-const static local
 * state, and no call whose every candidate is determinism-tainted
 * (reusing the taint graph, so a wrapper in an unscoped layer cannot
 * launder entropy into the schedule).  Nested lambdas are part of
 * the marked function.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "check/rules.hh"

namespace ot::check {

/** Determinism taint over the whole run.  `rounds` (optional)
 *  receives the number of propagation sweeps, for --stats. */
void runDeterminismTaint(const std::vector<FileContext> &ctxs,
                         std::vector<Diagnostic> &out,
                         std::size_t *rounds = nullptr);

/** Scheduler-purity rule over the functions carrying the pure
 *  marker. */
void runSchedPurity(const std::vector<FileContext> &ctxs,
                    std::vector<Diagnostic> &out);

} // namespace ot::check
