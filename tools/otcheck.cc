/**
 * @file
 * otcheck — project-specific static analysis for the orthotree tree.
 *
 * Enforces the invariants the engine's bit-identical-at-any-
 * OT_HOST_THREADS guarantee rests on: no nondeterminism sources in
 * lane-reachable code (flat scan plus interprocedural taint), no
 * layering back-edges, path-sensitive beginPhase/endPhase accounting
 * with cross-function net-delta summaries, allocation-free hotpath
 * files (and call chains),
 * used-and-direct includes, and no unreachable statements.  See
 * src/check/rules.hh for the rule catalogue and DESIGN.md for the
 * layer DAG and analysis pipeline.
 *
 * Usage:
 *   otcheck [--root DIR] [--compile-commands FILE] [--json]
 *           [--sarif-out FILE] [--baseline FILE] [--no-baseline]
 *           [--self] [--list-files] [--stats] [--stats-json FILE]
 *           [--explain RULE] [FILE...]
 *
 * With no FILE arguments, audits every *.cc / *.hh under root/src,
 * root/tools and root/bench (unioned with the translation units named
 * in the compile_commands.json, when given).  `--self` narrows the
 * set to src/check/ — the analyzer analyzing itself.  A baseline file
 * (default: root/.otcheck-baseline when present; disable with
 * --no-baseline) mutes known (rule, file) pairs.  `--explain RULE`
 * prints the rule's documentation (from the same catalog the SARIF
 * emitter renders) and exits.  Exit status: 0 clean, 1 diagnostics,
 * 2 usage error.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "check/rules.hh"
#include "check/sarif.hh"

namespace {

std::string
ruleList()
{
    std::string list;
    for (const ot::check::RuleDoc &d : ot::check::ruleCatalog()) {
        if (!list.empty())
            list += ", ";
        list += d.id;
    }
    return list;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--root DIR] [--compile-commands FILE] [--json]\n"
        "          [--sarif-out FILE] [--baseline FILE] "
        "[--no-baseline]\n"
        "          [--self] [--list-files] [--stats] "
        "[--stats-json FILE]\n"
        "          [--explain RULE] [FILE...]\n"
        "rules: %s\n"
        "escape: // otcheck:allow(<rule>): <justification>\n",
        argv0, ruleList().c_str());
    return 2;
}

int
explainRule(const std::string &rule)
{
    const ot::check::RuleDoc *doc = ot::check::findRuleDoc(rule);
    if (!doc) {
        std::fprintf(stderr,
                     "otcheck: unknown rule '%s'\nrules: %s\n",
                     rule.c_str(), ruleList().c_str());
        return 2;
    }
    std::printf("%s\n  %s\n\nmodel\n  %s\n\nexample\n  %s\n\n"
                "allow() policy\n  %s\n",
                doc->id, doc->summary, doc->model, doc->example,
                doc->allowable
                    ? doc->allowPolicy
                    : "not allowable; this rule audits the escape "
                      "mechanism itself");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::string compileCommands;
    std::string sarifOut;
    std::string baselinePath;
    std::string statsJsonOut;
    bool noBaseline = false;
    bool selfCheck = false;
    bool json = false;
    bool listFiles = false;
    bool wantStats = false;
    std::vector<std::string> explicitFiles;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--root") == 0 && i + 1 < argc) {
            root = argv[++i];
        } else if (std::strcmp(arg, "--compile-commands") == 0 &&
                   i + 1 < argc) {
            compileCommands = argv[++i];
        } else if (std::strcmp(arg, "--sarif-out") == 0 &&
                   i + 1 < argc) {
            sarifOut = argv[++i];
        } else if (std::strcmp(arg, "--baseline") == 0 &&
                   i + 1 < argc) {
            baselinePath = argv[++i];
        } else if (std::strcmp(arg, "--no-baseline") == 0) {
            noBaseline = true;
        } else if (std::strcmp(arg, "--self") == 0) {
            selfCheck = true;
        } else if (std::strcmp(arg, "--json") == 0) {
            json = true;
        } else if (std::strcmp(arg, "--list-files") == 0) {
            listFiles = true;
        } else if (std::strcmp(arg, "--stats") == 0) {
            wantStats = true;
        } else if (std::strcmp(arg, "--stats-json") == 0 &&
                   i + 1 < argc) {
            statsJsonOut = argv[++i];
        } else if (std::strcmp(arg, "--explain") == 0 &&
                   i + 1 < argc) {
            return explainRule(argv[++i]);
        } else if (std::strncmp(arg, "--", 2) == 0) {
            return usage(argv[0]);
        } else {
            explicitFiles.push_back(arg);
        }
    }

    std::error_code ec;
    if (!std::filesystem::is_directory(root, ec) || ec) {
        std::fprintf(stderr, "otcheck: no such root: %s\n",
                     root.c_str());
        return 2;
    }
    // A missing compile_commands.json is not an error: the directory
    // walk already covers the tree; the database only adds files.
    if (!compileCommands.empty() &&
        !std::filesystem::is_regular_file(compileCommands, ec))
        compileCommands.clear();

    std::vector<std::string> files =
        explicitFiles.empty()
            ? ot::check::collectFiles(root, compileCommands)
            : explicitFiles;

    if (selfCheck) {
        std::vector<std::string> narrowed;
        for (const std::string &f : files)
            if (f.compare(0, 10, "src/check/") == 0)
                narrowed.push_back(f);
        files = std::move(narrowed);
    }

    if (listFiles) {
        for (const std::string &f : files)
            std::printf("%s\n", f.c_str());
        return 0;
    }

    const bool collectStats = wantStats || !statsJsonOut.empty();
    ot::check::RunStats stats;
    ot::check::Report report = ot::check::checkTree(
        root, files, collectStats ? &stats : nullptr);

    std::size_t muted = 0;
    if (!noBaseline) {
        if (baselinePath.empty()) {
            std::filesystem::path def =
                std::filesystem::path(root) / ".otcheck-baseline";
            if (std::filesystem::is_regular_file(def, ec) && !ec)
                baselinePath = def.string();
        }
        if (!baselinePath.empty())
            muted = ot::check::applyBaseline(
                ot::check::loadBaseline(baselinePath), report);
    }

    if (!sarifOut.empty()) {
        std::ofstream out(sarifOut, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "otcheck: cannot write %s\n",
                         sarifOut.c_str());
            return 2;
        }
        out << ot::check::renderSarif(report);
    }
    if (!statsJsonOut.empty()) {
        std::ofstream out(statsJsonOut, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "otcheck: cannot write %s\n",
                         statsJsonOut.c_str());
            return 2;
        }
        out << ot::check::renderStatsJson(stats);
    }

    std::string rendered = json ? ot::check::renderJson(report)
                                : ot::check::renderText(report);
    std::fputs(rendered.c_str(), stdout);
    if (wantStats)
        std::fputs(ot::check::renderStatsText(stats).c_str(), stderr);
    if (muted)
        std::fprintf(stderr,
                     "otcheck: %zu baselined finding%s muted (%s)\n",
                     muted, muted == 1 ? "" : "s",
                     baselinePath.c_str());
    return report.diagnostics.empty() ? 0 : 1;
}
