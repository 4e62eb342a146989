/**
 * @file
 * otcheck driver: file collection, rule dispatch, rendering.
 *
 * The checker walks src/, tools/ and bench/ under a repo root, lexes
 * each file once, and runs every rule over each file on its own; the
 * only fact shared between files is which of them carry the hotpath
 * marker.  File order and diagnostic order are deterministic — the
 * checker holds itself to the same standard it enforces.
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

/** Lex every file, then run the rules over each with allows applied.
 *  A fixture-path marker in a source re-classifies that file under
 *  the path it names (used by the fixture corpus).  Diagnostics come
 *  back sorted by (file, line, rule). */
Report checkProject(const std::vector<SourceFile> &files);

/** Single-file convenience over checkProject. */
std::vector<Diagnostic> checkSource(const std::string &path,
                                    const std::string &source);

/** Collect the audit set under `root`: every *.cc / *.hh beneath
 *  root/src, root/tools and root/bench, repo-relative and sorted. */
std::vector<std::string> collectFiles(const std::string &root);

/** The entries of `files` (repo-relative, resolved against `root`)
 *  that are not regular files, in order. */
std::vector<std::string> missingFiles(const std::string &root,
                                      const std::vector<std::string> &files);

/** Read every file in `files` (repo-relative, resolved against
 *  `root`). */
std::vector<SourceFile> readTree(const std::string &root,
                                 const std::vector<std::string> &files);

/** `file:line: error: [rule] message` lines plus a summary line. */
std::string renderText(const Report &report);

} // namespace ot::check
