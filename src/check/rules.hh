/**
 * @file
 * otcheck rule definitions.
 *
 * The rules guard the engine's headline guarantee — charged model
 * time and trace streams bit-identical at any OT_HOST_THREADS — plus
 * the architectural layering that keeps them auditable.  Each is one
 * flat pass over one file's tokens and include lines; none resolves
 * calls or builds a project graph.
 *
 *   determinism — no nondeterminism sources (wall clocks, rand(),
 *                 thread ids) and no iteration-order hazards
 *                 (std::unordered_*, pointer-keyed map/set) anywhere
 *                 under src/.  A wrapper around a banned call is
 *                 caught at the banned call itself, whatever layer
 *                 it lives in and however it is called.
 *   layering    — `#include` edges must follow the layer DAG (see
 *                 DESIGN.md); no back-edges, and no
 *                 include/orthotree umbrella includes from src/.
 *   hotpath     — files carrying the hotpath marker may not mention
 *                 std::function, `virtual`, or heap-allocation
 *                 tokens (new/malloc/make_unique/...), and may
 *                 include only <system> headers and other
 *                 hotpath-marked files.
 *   intrinsics  — raw SIMD intrinsics (intrinsic headers, _mm* /
 *                 __m* and NEON names) only inside src/simd.
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

#include <map>
#include <string>
#include <vector>

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

/** A file presented to the rules: lexed content plus the
 *  repo-relative path it should be judged as (fixtures override their
 *  real path). */
struct FileContext
{
    std::string path;  ///< repo-relative, '/'-separated
    std::string layer; ///< classified layer, see classifyLayer()
    LexedFile lexed;
};

/** Every file of one run, by repo-relative path, mapped to whether it
 *  carries the hotpath marker (the hotpath include clause reads it). */
using HotpathMap = std::map<std::string, bool>;

/**
 * Map a repo-relative path to its layer: the directory under src/
 * ("sim", "otn", ...), or "tools" / "tests" / "bench" / "examples" /
 * "include" for the app-level trees, or "" for anything else.
 */
std::string classifyLayer(const std::string &path);

/** Layers a given layer may include (empty ⇒ unrestricted). */
const std::vector<std::string> &allowedIncludes(const std::string &layer);

/** One rule id otcheck can emit. */
struct RuleDoc
{
    const char *id;
    const char *summary; ///< one line, listed in the usage text
    bool allowable;      ///< may appear in an allow() marker
};

/** Every rule id otcheck can emit, in a stable order. */
const std::vector<RuleDoc> &ruleCatalog();

/** True iff `rule` is one of the rule ids allow() may name. */
bool knownRule(const std::string &rule);

/** Run every rule over one file and apply its allow() markers.
 *  `hotpath` names the run's files (a quoted include that resolves
 *  to none of them is not judged).  Sorted by (line, rule). */
std::vector<Diagnostic> runRules(const FileContext &ctx,
                                 const HotpathMap &hotpath);

} // namespace ot::check
