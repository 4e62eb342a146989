/**
 * @file
 * otcheck — project-specific static analysis for the orthotree tree.
 *
 * Enforces the invariants behind the engine's bit-identical-at-any-
 * OT_HOST_THREADS guarantee that the compiler cannot: no
 * nondeterminism sources in the determinism-scope layers (flat scan
 * plus interprocedural taint), no layering back-edges,
 * allocation-free hotpath files (and call chains), used-and-direct
 * includes, and raw SIMD intrinsics confined to src/simd.  Phase
 * balance is the compiler's job (only sim::ScopedPhase opens a
 * phase).  See src/check/rules.hh for the rule catalogue and
 * DESIGN.md for the layer DAG and analysis pipeline.
 *
 * Usage:
 *   otcheck [--root DIR] [--json] [--sarif-out FILE] [--stats]
 *           [--stats-json FILE] [--explain RULE] [FILE...]
 *
 * With no FILE arguments, audits every *.cc / *.hh under root/src,
 * root/tools and root/bench.  `--explain RULE` prints the rule's
 * documentation (from the same catalog the SARIF emitter renders)
 * and exits.  Exit status: 0 clean, 1 diagnostics, 2 usage error.
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
        "usage: %s [--root DIR] [--json] [--sarif-out FILE] [--stats]\n"
        "          [--stats-json FILE] [--explain RULE] [FILE...]\n"
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
    std::string sarifOut;
    std::string statsJsonOut;
    bool json = false;
    bool wantStats = false;
    std::vector<std::string> explicitFiles;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--root") == 0 && i + 1 < argc) {
            root = argv[++i];
        } else if (std::strcmp(arg, "--sarif-out") == 0 &&
                   i + 1 < argc) {
            sarifOut = argv[++i];
        } else if (std::strcmp(arg, "--json") == 0) {
            json = true;
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
    std::vector<std::string> files = explicitFiles.empty()
                                         ? ot::check::collectFiles(root)
                                         : explicitFiles;

    const bool collectStats = wantStats || !statsJsonOut.empty();
    ot::check::RunStats stats;
    ot::check::Report report = ot::check::checkTree(
        root, files, collectStats ? &stats : nullptr);

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
    return report.diagnostics.empty() ? 0 : 1;
}
