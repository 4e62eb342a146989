/**
 * @file
 * Interprocedural dataflow rules for otcheck: determinism taint and
 * lane-safety.
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
 * lane-safety
 * -----------
 * Lambdas passed to a `parallelFor` entry point execute concurrently
 * on host lanes.  The engine discipline (DESIGN.md: per-lane buffer,
 * then deterministic merge) requires every write through a
 * by-reference capture to be indexed by the lane/shard parameter.
 * The pass finds the entry lambdas syntactically (a lambda inside a
 * `parallelFor(` argument range), tracks lane-derived locals
 * (`const Shard &sh = shards[s]` makes `sh` lane-derived, and
 * `for (std::size_t idx : sh.members)` extends it to `idx`), and
 * flags
 *
 *   - direct writes (assignment, compound assignment, ++/--, and
 *     mutating container methods) through a by-reference capture on
 *     a path with no lane-derived subscript, and
 *   - captured state passed by reference to a function whose
 *     parameter summary says it mutates that parameter (computed
 *     transitively over the call graph), with a cross-file witness.
 *
 * Method calls not on the mutating list stop the path walk silently:
 * the checker cannot see constness, and flagging reads would make
 * the rule unusable.  Engine accessors (charge, counter, traceSpan)
 * are lane-aware by design and fall under this conservative stop.
 *
 * shared
 * ------
 * A class carrying the shared(post-build) marker (or deriving from
 * one — the marker is inherited, so marking `topo::Machine` covers
 * every plugin) is handed out by the network cache and shared across
 * engine shards; after construction it may only change through the
 * virtual plugin API the engine serializes (reset, charge, the run*
 * entry points).  The pass takes the class graph from the contract
 * stage and audits every *non-API* member function for: a direct
 * member write or mutating container call; a member passed by
 * reference to a free function whose mutation summary says it writes
 * that position (cross-TU witness: "mutated by 'resizeLanes' at
 * file:line via g()"); and a returned non-const reference to a
 * member, which lets any caller mutate the shared object with no
 * rule in sight.  Deliberate backdoors (lazy caches the engine
 * serializes anyway) carry allow(shared) with the synchronization
 * argument in the justification.
 *
 * sched-purity
 * ------------
 * A function carrying the pure marker (the scenario ranking
 * functions) must be a pure ordering: no by-reference argument
 * mutation (checked through the same summaries, so a helper that
 * writes for it is caught with a witness), no non-const static local
 * state, and no call whose every candidate is determinism-tainted
 * (reusing the taint graph, so a wrapper in an unscoped layer cannot
 * launder entropy into the schedule).  Nested lambdas are part of
 * the marked function.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "check/contracts.hh"
#include "check/rules.hh"

namespace ot::check {

/** Determinism taint over the whole run.  `rounds` (optional)
 *  receives the number of propagation sweeps, for --stats. */
void runDeterminismTaint(const std::vector<FileContext> &ctxs,
                         std::vector<Diagnostic> &out,
                         std::size_t *rounds = nullptr);

/** Lane-safety race rule over the whole run. */
void runLaneSafety(const std::vector<FileContext> &ctxs,
                   std::vector<Diagnostic> &out);

/** shared(post-build) immutability/escape rule over the whole run;
 *  consumes the contract stage's class graph. */
void runSharedImmutability(const std::vector<FileContext> &ctxs,
                           const ClassGraph &cg,
                           std::vector<Diagnostic> &out);

/** Scheduler-purity rule over the functions carrying the pure
 *  marker. */
void runSchedPurity(const std::vector<FileContext> &ctxs,
                    std::vector<Diagnostic> &out);

} // namespace ot::check
