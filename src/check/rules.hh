/**
 * @file
 * otcheck rule definitions.
 *
 * The rule families guard the engine's headline guarantee — charged
 * model time and trace streams bit-identical at any OT_HOST_THREADS —
 * plus the architectural layering that keeps them auditable:
 *
 *   determinism — no nondeterminism sources (wall clocks, rand(),
 *                 thread ids) and no iteration-order hazards
 *                 (std::unordered_*, pointer-keyed map/set) inside
 *                 the determinism scope: src/sim, src/otn, src/otc,
 *                 src/topo, src/workload and src/scenario.
 *   layering    — `#include` edges must follow the layer DAG (see
 *                 DESIGN.md); no back-edges, and no
 *                 include/orthotree umbrella includes from src/.
 *   hotpath     — files carrying the hotpath marker may not mention
 *                 std::function, `virtual`, or heap-allocation
 *                 tokens (new/malloc/make_unique/...).
 *   hotpath-propagation — transitive form of the above over the
 *                 project call graph: a function in a hotpath file
 *                 may not call (by any chain of src/ definitions) a
 *                 function that allocates, uses std::function, or is
 *                 virtual.
 *   include-hygiene — every resolved project include must contribute
 *                 a used symbol (directly or as a gateway), and a
 *                 symbol with a unique declaring header must include
 *                 that header directly rather than rely on an
 *                 unrelated transitive path.
 *   intrinsics  — raw SIMD intrinsics (intrinsic headers, _mm* /
 *                 __m* and NEON names) only inside src/simd.
 *   determinism-taint — interprocedural form of determinism: a
 *                 function whose body draws from a raw nondeterminism
 *                 source (outside an allow(determinism) extent) taints
 *                 every function that reaches it through calls or
 *                 function-pointer references; a call from the
 *                 determinism scope into a tainted out-of-scope
 *                 definition is diagnosed with the full source→sink
 *                 witness chain, so wrapper laundering cannot escape
 *                 the flat token scan.
 *
 * Phase accounting is not a rule: TimeAccountant's phase push/pop is
 * private to sim::ScopedPhase, so the compiler already guarantees
 * every phase closes on every path.
 *
 * Any diagnostic can be suppressed with an allow(rule): justification
 * marker comment; the marker covers the full statement that begins on
 * or after its line (not just the physical line).  An empty
 * justification is itself an error (rule id `allow-syntax`), and a
 * well-formed marker that suppresses nothing is reported as
 * `unused-allow` so escapes cannot outlive their reason.  The exact
 * marker spelling is documented in README.md — writing it out here
 * would make the checker read its own docs as markers.
 */

#pragma once

#include <string>
#include <utility>
#include <vector>

#include "check/cfg.hh"
#include "check/lexer.hh"

namespace ot::check {

/** One finding.  `rule` is the stable machine-readable id. */
struct Diagnostic
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
    std::string hint; ///< how to fix, one line
};

/** A file presented to the rules: lexed + parsed content plus the
 *  repo-relative path it should be judged as (fixtures override their
 *  real path). */
struct FileContext
{
    std::string path;  ///< repo-relative, '/'-separated
    std::string layer; ///< classified layer, see classifyLayer()
    LexedFile lexed;
    ParsedFile parsed;
};

/**
 * Map a repo-relative path to its layer: the directory under src/
 * ("sim", "otn", ...), or "tools" / "tests" / "bench" / "examples" /
 * "include" for the app-level trees, or "" for anything else.
 */
std::string classifyLayer(const std::string &path);

/** Layers a given layer may include (empty ⇒ unrestricted). */
const std::vector<std::string> &allowedIncludes(const std::string &layer);

/** True for the layers the determinism rules scope to (sim, otn, otc,
 *  topo, workload, scenario). */
bool inDeterminismScope(const std::string &layer);

/** One banned identifier shared by the flat determinism scan and the
 *  taint source scan. */
struct DeterminismBan
{
    const char *name;
    bool callOnly; ///< only banned in free-call position `name(`
};

/** The determinism ban list (names only; messages stay internal). */
const std::vector<DeterminismBan> &determinismBans();

/** True iff `rule` is one of the rule ids allow() may name. */
bool knownRule(const std::string &rule);

/**
 * Documentation record for one rule id — the single source of truth
 * rendered by both the SARIF emitter and `otcheck --explain`.
 */
struct RuleDoc
{
    const char *id;
    const char *summary; ///< one line; SARIF shortDescription
    const char *model;   ///< what the rule analyzes and how
    const char *example; ///< a representative diagnostic message
    const char *allowPolicy; ///< when an allow() escape is sanctioned
    bool allowable;          ///< may appear in an allow() marker
};

/** Every rule id otcheck can emit, in stable SARIF ruleIndex order. */
const std::vector<RuleDoc> &ruleCatalog();

/** Lookup by id; nullptr when unknown. */
const RuleDoc *findRuleDoc(const std::string &rule);

/** Line extent an allow() marker on `line` covers: from its own line
 *  through the end of the statement beginning at or after it.  Used
 *  by the allow filter and by source-level scans (determinism taint)
 *  that must honor markers before diagnostics exist. */
std::pair<int, int> allowExtent(const std::vector<Token> &toks,
                                int line);

/** Work counters from the interprocedural passes, for --stats. */
struct ProjectRuleStats
{
    std::size_t functionsAnalyzed = 0;
    std::size_t taintRounds = 0; ///< taint fixpoint sweeps
};

/** Run the single-file rules (determinism, layering, hotpath,
 *  intrinsics) over one file.  Raw: allow() markers are NOT
 *  applied. */
std::vector<Diagnostic> runFileRules(const FileContext &ctx);

/** Run the cross-file rules (hotpath-propagation, include-hygiene,
 *  determinism taint) over a whole run's file set.  Raw: allow()
 *  markers are NOT applied. */
std::vector<Diagnostic>
runProjectRules(const std::vector<FileContext> &ctxs,
                ProjectRuleStats *stats = nullptr);

/** Apply one file's allow() markers to the diagnostics raised against
 *  it (from both rule passes): filter suppressed findings, validate
 *  the markers, report stale ones, and sort by (line, rule). */
std::vector<Diagnostic> applyAllows(const FileContext &ctx,
                                    std::vector<Diagnostic> diags);

/** Single-file convenience: file rules + the project rules run on the
 *  singleton set, with allows applied. */
std::vector<Diagnostic> runRules(const FileContext &ctx);

} // namespace ot::check
