/**
 * @file
 * otcheck — project-specific static analysis for the orthotree tree.
 *
 * Enforces, one file at a time, the invariants behind the engine's
 * bit-identical-at-any-OT_HOST_THREADS guarantee that the compiler
 * cannot: no nondeterminism sources anywhere under src/, no layering
 * back-edges, allocation-free hotpath files that include only system
 * and hotpath headers, and raw SIMD intrinsics confined to src/simd.
 * Phase balance is the compiler's job (only sim::ScopedPhase opens a
 * phase).  See src/check/rules.hh for the rules and DESIGN.md for the
 * layer DAG.
 *
 * Usage:
 *   otcheck [--root DIR] [FILE...]
 *
 * With no FILE arguments, audits every *.cc / *.hh under root/src,
 * root/tools and root/bench.  Exit status: 0 clean, 1 diagnostics,
 * 2 usage error (an unknown flag, or a root or FILE that does not
 * exist).
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "check/checker.hh"
#include "check/rules.hh"

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr, "usage: %s [--root DIR] [FILE...]\nrules:\n",
                 argv0);
    for (const ot::check::RuleDoc &d : ot::check::ruleCatalog())
        std::fprintf(stderr, "  %-13s %s%s\n", d.id, d.summary,
                     d.allowable ? "" : " (not allowable)");
    std::fprintf(stderr,
                 "escape: // otcheck:allow(<rule>): <justification>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string root = ".";
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--root") == 0 && i + 1 < argc)
            root = argv[++i];
        else if (std::strncmp(arg, "--", 2) == 0)
            return usage(argv[0]);
        else
            files.push_back(arg);
    }

    std::error_code ec;
    if (!std::filesystem::is_directory(root, ec) || ec) {
        std::fprintf(stderr, "otcheck: no such root: %s\n",
                     root.c_str());
        return 2;
    }
    if (files.empty())
        files = ot::check::collectFiles(root);
    const std::vector<std::string> missing =
        ot::check::missingFiles(root, files);
    for (const std::string &file : missing)
        std::fprintf(stderr, "otcheck: no such file: %s\n", file.c_str());
    if (!missing.empty())
        return 2;

    ot::check::Report report =
        ot::check::checkProject(ot::check::readTree(root, files));
    std::fputs(ot::check::renderText(report).c_str(), stdout);
    return report.diagnostics.empty() ? 0 : 1;
}
