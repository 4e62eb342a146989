/**
 * @file
 * otcheck driver: file collection, rule dispatch, rendering.
 *
 * The checker walks src/, tools/ and bench/ under a repo root and
 * runs every rule over the whole file set at once — the cross-file
 * rules (hotpath-propagation, include-hygiene) need the full project
 * in view.  File order, diagnostic order and all output formats are
 * deterministic — the checker holds itself to the same standard it
 * enforces.
 */

#pragma once

#include <string>
#include <vector>

#include "check/rules.hh"

namespace ot::check {

/** One input file: repo-relative path plus its content. */
struct SourceFile
{
    std::string path;
    std::string source;
};

/** Everything one run produced. */
struct Report
{
    std::vector<std::string> files; ///< repo-relative, sorted
    std::vector<Diagnostic> diagnostics;
};

/** Work and wall-time counters for one run (--stats).  Timing uses
 *  the host clock, which is why the check layer is exempt from the
 *  determinism scope: stats are diagnostics about the checker, never
 *  part of a replayed result. */
struct RunStats
{
    std::size_t files = 0;
    std::size_t functionsAnalyzed = 0;
    std::size_t taintRounds = 0; ///< taint fixpoint sweeps
    double lexParseMs = 0.0;  ///< lex + parse, all files
    double fileRulesMs = 0.0; ///< single-file rule passes
    double projectRulesMs = 0.0; ///< cross-file passes (taint,
                                 ///< graphs)
    double totalMs = 0.0;
};

/** Run the full pipeline (lex → parse → file rules → project rules →
 *  allows) over an in-memory file set.  A fixture-path marker in a
 *  source re-classifies that file under the path it names (used by
 *  the fixture corpus).  Diagnostics come back sorted by
 *  (file, line, rule). */
Report checkProject(const std::vector<SourceFile> &files,
                    RunStats *stats = nullptr);

/** Single-file convenience over checkProject. */
std::vector<Diagnostic> checkSource(const std::string &path,
                                    const std::string &source);

/** Read and check one on-disk file; `displayPath` names it in
 *  diagnostics and layer classification. */
std::vector<Diagnostic> checkFile(const std::string &filePath,
                                  const std::string &displayPath);

/** Collect the audit set under `root`: every *.cc / *.hh beneath
 *  root/src, root/tools and root/bench, repo-relative and sorted. */
std::vector<std::string> collectFiles(const std::string &root);

/** Check every file in `files` (repo-relative, resolved against
 *  `root`) as one project. */
Report checkTree(const std::string &root,
                 const std::vector<std::string> &files,
                 RunStats *stats = nullptr);

/** `file:line: error: [rule] message` lines plus a summary line. */
std::string renderText(const Report &report);

/** Machine-readable form: a JSON array of diagnostic objects. */
std::string renderJson(const Report &report);

/** Human-readable stats block (one `key: value` per line). */
std::string renderStatsText(const RunStats &stats);

/** Stats as one JSON object (stable key order, trailing newline). */
std::string renderStatsJson(const RunStats &stats);

} // namespace ot::check
