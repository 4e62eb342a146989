/**
 * @file
 * Tests for otcheck (src/check): the lexer, each rule, the fixture
 * corpus under tests/check/, and — the gate the tool exists for —
 * that the shipped src/ + tools/ + bench/ tree checks clean while
 * seeded violations do not.
 */

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/checker.hh"

namespace {

using ot::check::Diagnostic;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** (line, rule) pairs, the comparable essence of a diagnostic set. */
using Findings = std::multiset<std::pair<int, std::string>>;

Findings
findingsOf(const std::vector<Diagnostic> &diags)
{
    Findings f;
    for (const Diagnostic &d : diags)
        f.insert({d.line, d.rule});
    return f;
}

/** Parse `// ... expect: rule[, rule]` annotations, one per line. */
Findings
expectedFindings(const std::string &source)
{
    Findings f;
    std::istringstream in(source);
    std::string line;
    int lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        std::size_t pos = line.find("expect:");
        if (pos == std::string::npos)
            continue;
        std::istringstream rules(line.substr(pos + 7));
        std::string rule;
        while (std::getline(rules, rule, ',')) {
            rule.erase(std::remove_if(rule.begin(), rule.end(),
                                      [](unsigned char c) {
                                          return std::isspace(c);
                                      }),
                       rule.end());
            if (!rule.empty())
                f.insert({lineNo, rule});
        }
    }
    return f;
}

std::string
show(const Findings &f)
{
    std::ostringstream out;
    for (const auto &[line, rule] : f)
        out << "  line " << line << ": " << rule << "\n";
    return out.str();
}

std::vector<Diagnostic>
checkAs(const std::string &virtualPath, const std::string &source)
{
    return ot::check::checkSource(virtualPath, source);
}

// ---------------------------------------------------------------
// Fixture corpus: each tests/check/*.cc file carries its own
// expected diagnostics; bad fixtures must produce exactly them and
// good fixtures none.

TEST(CheckFixtures, CorpusMatchesAnnotations)
{
    const std::string dir = OT_CHECK_FIXTURE_DIR;
    const std::vector<std::string> names = {
        "bad_allow.cc",         "bad_determinism.cc",
        "bad_hotpath.cc",       "bad_intrinsics.cc",
        "bad_layering.cc",      "bad_lexer_resync.cc",
        "bad_topo_layering.cc", "good_determinism.cc",
        "good_hotpath.cc",      "good_intrinsics.cc",
        "good_layering.cc",     "good_lexer.cc",
        "good_topo_layering.cc",
    };
    for (const std::string &name : names) {
        SCOPED_TRACE(name);
        std::string source = slurp(dir + "/" + name);
        ASSERT_FALSE(source.empty());
        Findings expected = expectedFindings(source);
        if (name.compare(0, 5, "good_") == 0) {
            EXPECT_TRUE(expected.empty())
                << "good fixtures must carry no expect: annotations";
        }
        Findings actual = findingsOf(
            ot::check::checkSource("tests/check/" + name, source));
        EXPECT_EQ(expected, actual)
            << "expected:\n" << show(expected) << "actual:\n"
            << show(actual);
    }
}

/** Run several fixtures as one project. */
std::vector<Diagnostic>
checkFixtureProject(const std::vector<std::string> &names)
{
    const std::string dir = OT_CHECK_FIXTURE_DIR;
    std::vector<ot::check::SourceFile> files;
    for (const std::string &name : names)
        files.push_back({"tests/check/" + name, slurp(dir + "/" + name)});
    return ot::check::checkProject(files).diagnostics;
}

/** Check `names` as one project: the only diagnostic is
 *  fixture_taint_noise.cc's own `expect:` line, so every sink that
 *  reaches the entropy source without naming it is silent. */
void
expectFlaggedAtSourceOnly(const std::vector<std::string> &names)
{
    const std::string dir = OT_CHECK_FIXTURE_DIR;
    Findings expected =
        expectedFindings(slurp(dir + "/fixture_taint_noise.cc"));
    ASSERT_EQ(1u, expected.size());
    std::vector<Diagnostic> diags = checkFixtureProject(names);
    EXPECT_EQ(expected, findingsOf(diags))
        << "expected:\n" << show(expected) << "actual:\n"
        << show(findingsOf(diags));
    ASSERT_EQ(1u, diags.size());
    EXPECT_EQ("src/analysis/fixture_taint_noise.cc", diags[0].file);
}

// Entropy laundered through a wrapper, a qualified call and a
// function-pointer table is reported once, at the rand() call in the
// analysis-layer source; the wrapper and the sinks are silent,
// because the determinism rule covers every src/ layer and needs no
// call resolution.
TEST(CheckFixtures, DeterminismTaintProject)
{
    expectFlaggedAtSourceOnly(
        {"fixture_taint_noise.cc", "fixture_taint_wrapper.cc",
         "fixture_taint_sink.cc", "fixture_taint_table.cc"});
}

// A scheduler ranking function that draws entropy through a wrapper
// one hop from rand(): the call site looks clean, and the source is
// the one diagnostic.
TEST(CheckFixtures, SchedPurityTaintProject)
{
    expectFlaggedAtSourceOnly({"fixture_taint_noise.cc",
                               "fixture_taint_wrapper.cc",
                               "fixture_taint_sink.cc"});
}

// A kernel table that stores &fixtureRawNoise hands the
// nondeterminism to whoever invokes the entry; the source is still
// the one diagnostic, and the reference itself is silent.
TEST(CheckFixtures, TaintThroughFunctionPointerTable)
{
    expectFlaggedAtSourceOnly(
        {"fixture_taint_noise.cc", "fixture_taint_table.cc"});
}

// ---------------------------------------------------------------
// The acceptance gate: the shipped tree is clean, and the canonical
// seeded violations are caught.

TEST(CheckTree, CollectFilesCoversToolsAndBench)
{
    const std::string root = OT_CHECK_SOURCE_ROOT;
    std::vector<std::string> files = ot::check::collectFiles(root);
    auto anyWith = [&](const std::string &prefix) {
        return std::any_of(files.begin(), files.end(),
                           [&](const std::string &f) {
                               return f.compare(0, prefix.size(),
                                                prefix) == 0;
                           });
    };
    EXPECT_TRUE(anyWith("src/"));
    EXPECT_TRUE(anyWith("tools/"));
    EXPECT_TRUE(anyWith("bench/"));
}

/** The shipped audit set, read into memory once. */
const std::vector<ot::check::SourceFile> &
shippedTree()
{
    static const std::vector<ot::check::SourceFile> tree = [] {
        const std::string root = OT_CHECK_SOURCE_ROOT;
        return ot::check::readTree(root, ot::check::collectFiles(root));
    }();
    return tree;
}

TEST(CheckTree, ShippedTreeIsClean)
{
    EXPECT_GT(shippedTree().size(), 80u)
        << "directory walk found too little";
    ot::check::Report report = ot::check::checkProject(shippedTree());
    EXPECT_TRUE(report.diagnostics.empty())
        << ot::check::renderText(report);
}

TEST(CheckTree, MissingFileArgumentsAreNamed)
{
    // otcheck exits 2 naming each of these instead of auditing an
    // empty file.  A directory is not a file either.
    const std::string root = OT_CHECK_SOURCE_ROOT;
    EXPECT_EQ(ot::check::missingFiles(
                  root, {"src/otn/sort.cc", "no/such/file.cc", "src",
                         "tools/otcheck.cc"}),
              (std::vector<std::string>{"no/such/file.cc", "src"}));
    EXPECT_TRUE(
        ot::check::missingFiles(root, ot::check::collectFiles(root)).empty());
}

TEST(CheckTree, SeededRandInOtnSortIsCaught)
{
    const std::string root = OT_CHECK_SOURCE_ROOT;
    std::string source = slurp(root + "/src/otn/sort.cc");
    int lines = static_cast<int>(
        std::count(source.begin(), source.end(), '\n'));
    source += "\nint otcheckSeed() { return rand(); }\n";
    std::vector<Diagnostic> diags =
        checkAs("src/otn/sort.cc", source);
    ASSERT_EQ(1u, diags.size());
    EXPECT_EQ("determinism", diags[0].rule);
    EXPECT_EQ(lines + 2, diags[0].line);
    EXPECT_EQ("src/otn/sort.cc", diags[0].file);
}

TEST(CheckTree, SeededSimToOtnIncludeIsCaught)
{
    std::vector<Diagnostic> diags = checkAs(
        "src/sim/chain_engine.cc",
        "#include \"otn/sort.hh\"\nint x;\n");
    ASSERT_EQ(1u, diags.size());
    EXPECT_EQ("layering", diags[0].rule);
    EXPECT_EQ(1, diags[0].line);
}

// The layers above otn may include simd (DESIGN.md: "everything
// below"); simd still may not include any of them.
TEST(CheckTree, SimdIsBelowTopoWorkloadAndScenario)
{
    for (const char *path : {"src/topo/registry.cc", "src/workload/engine.cc",
                             "src/scenario/engine.cc"})
        EXPECT_TRUE(
            checkAs(path, "#include \"simd/kernels.hh\"\nint x;\n").empty())
            << path;

    std::vector<Diagnostic> diags = checkAs(
        "src/simd/backend.cc", "#include \"topo/machine.hh\"\nint x;\n");
    ASSERT_EQ(1u, diags.size());
    EXPECT_EQ("layering", diags[0].rule);
    EXPECT_EQ(1, diags[0].line);
}

/** Insert `text` as new lines after the first line containing
 *  `after` (at the end of the file when `after` is empty). */
struct Edit
{
    const char *file;
    const char *after;
    const char *text;
};

/** A seeded defect: its edits, and the one rule expected to fire, at
 *  the first line the first edit inserts. */
struct Mutation
{
    const char *name;
    std::vector<Edit> edits;
    const char *rule;
};

const std::vector<Mutation> kMutations = {
    {"rand() wrapper in src/graph called as ot::graph::jitter()",
     {{"src/graph/generators.cc", "",
       "namespace ot::graph { int jitter() { return rand(); } }"},
      {"src/scenario/engine.cc", "",
       "int otcheckJitter() { return ot::graph::jitter(); }"}},
     "determinism"},
    {"std::chrono clock in the scenario engine",
     {{"src/scenario/engine.cc", "",
       "auto otcheckNow() { return std::chrono::steady_clock::now(); }"}},
     "determinism"},
    {"unordered_map iteration in the workload engine",
     {{"src/workload/engine.cc", "",
       "int otcheckSum(const std::unordered_map<int, int> &m)\n"
       "{ int s = 0; for (auto &kv : m) s += kv.second; return s; }"}},
     "determinism"},
    {"pointer-keyed std::set",
     {{"src/topo/registry.cc", "", "std::set<const Machine *> seen;"}},
     "determinism"},
    {"heap allocation in the fillT kernel body",
     {{"src/simd/kernels_generic.hh", "const auto v = V::splat(value);",
       "    std::uint64_t *scratch = new std::uint64_t[n];"}},
     "hotpath"},
    {"hotpath header including a non-hotpath header",
     {{"src/simd/kernels_generic.hh", "#include \"simd/kernels.hh\"",
       "#include \"simd/regfile.hh\""}},
     "hotpath"},
    {"sim -> otn include",
     {{"src/sim/chain_engine.cc", "#include", "#include \"otn/sort.hh\""}},
     "layering"},
    {"<immintrin.h> in src/workload",
     {{"src/workload/engine.cc", "#include", "#include <immintrin.h>"}},
     "intrinsics"},
};

/** Apply `e` to the tree; returns the 1-based line of its first
 *  inserted line, or 0 when the file or anchor is missing. */
int
applyEdit(std::vector<ot::check::SourceFile> &tree, const Edit &e)
{
    for (ot::check::SourceFile &f : tree) {
        if (f.path != e.file)
            continue;
        std::string &src = f.source;
        std::size_t at = src.size();
        if (*e.after) {
            std::size_t hit = src.find(e.after);
            if (hit == std::string::npos)
                return 0;
            at = src.find('\n', hit) + 1;
        } else if (!src.empty() && src.back() != '\n') {
            src += '\n';
            at = src.size();
        }
        src.insert(at, std::string(e.text) + "\n");
        int line = 1;
        for (std::size_t k = 0; k < at; ++k)
            line += src[k] == '\n';
        return line;
    }
    return 0;
}

// Each seeded defect, applied in memory to the shipped tree, yields
// exactly one diagnostic of the expected rule at the edited line.
TEST(CheckTree, SeededMutationsAreCaught)
{
    for (const Mutation &m : kMutations) {
        SCOPED_TRACE(m.name);
        std::vector<ot::check::SourceFile> tree = shippedTree();
        int line = 0;
        for (const Edit &e : m.edits) {
            int at = applyEdit(tree, e);
            ASSERT_GT(at, 0) << e.file << " / " << e.after;
            if (line == 0)
                line = at;
        }
        ot::check::Report report = ot::check::checkProject(tree);
        EXPECT_EQ(1u, report.diagnostics.size())
            << ot::check::renderText(report);
        if (report.diagnostics.empty())
            continue;
        EXPECT_EQ(m.edits[0].file, report.diagnostics[0].file);
        EXPECT_EQ(line, report.diagnostics[0].line);
        EXPECT_EQ(m.rule, report.diagnostics[0].rule);
    }
}

// ---------------------------------------------------------------
// Lexer behaviour the rules depend on.

TEST(CheckLexer, LiteralsAndCommentsAreNotTokens)
{
    EXPECT_TRUE(checkAs("src/otn/a.cc",
                        "// rand() in a comment\n"
                        "/* std::random_device too */\n"
                        "const char *s = \"rand()\";\n"
                        "const char *r = R\"(time(nullptr))\";\n")
                    .empty());
}

TEST(CheckLexer, PreprocessorDefinesAreNotTokens)
{
    EXPECT_TRUE(checkAs("src/otn/a.cc",
                        "#define SEED() \\\n    rand()\n"
                        "int x;\n")
                    .empty());
}

TEST(CheckLexer, RawStringDelimitersRespected)
{
    // The banned name sits between a fake and the real raw-string
    // terminator; the lexer must not resurface early.
    EXPECT_TRUE(checkAs("src/otn/a.cc",
                        "const char *s = R\"x()\" rand() )x\";\n")
                    .empty());
}

// ---------------------------------------------------------------
// Rule details.

TEST(CheckRules, MemberTimeCallIsNotWallClock)
{
    EXPECT_TRUE(checkAs("src/sim/a.cc",
                        "long f(S &s) { return s.time(); }\n")
                    .empty());
    EXPECT_EQ(1u, checkAs("src/sim/a.cc",
                          "long f() { return time(nullptr); }\n")
                      .size());
}

TEST(CheckRules, DeterminismCoversEverySrcLayer)
{
    const std::string body = "int f() { return rand(); }\n";
    EXPECT_EQ(1u, checkAs("src/sim/a.cc", body).size());
    EXPECT_EQ(1u, checkAs("src/otc/a.cc", body).size());
    // Host-side layers too: a value they draw can reach a report.
    EXPECT_EQ(1u, checkAs("src/analysis/a.cc", body).size());
    EXPECT_EQ(1u, checkAs("src/check/a.cc", body).size());
    // Outside src/, tools may use host randomness.
    EXPECT_TRUE(checkAs("tools/a.cc", body).empty());

    const std::string tid = "long f() { return pthread_self(); }\n";
    std::vector<Diagnostic> diags = checkAs("src/sim/a.cc", tid);
    ASSERT_EQ(1u, diags.size());
    EXPECT_EQ("derive identity from the loop or instance index",
              diags[0].hint);
}

TEST(CheckRules, UmbrellaBannedOnlyInsideSrc)
{
    const std::string inc = "#include \"orthotree/orthotree.hh\"\n";
    EXPECT_EQ(1u, checkAs("src/layout/a.cc", inc).size());
    EXPECT_TRUE(checkAs("tools/otsim.cc", inc).empty());
    EXPECT_TRUE(checkAs("tests/a.cc", inc).empty());
}

TEST(CheckRules, AllowRequiresJustification)
{
    EXPECT_TRUE(
        checkAs("src/otn/a.cc",
                "// otcheck:allow(determinism): fixed fold\n"
                "int f() { return rand(); }\n")
            .empty());
    std::vector<Diagnostic> diags =
        checkAs("src/otn/a.cc",
                "// otcheck:allow(determinism)\n"
                "int f() { return rand(); }\n");
    ASSERT_EQ(2u, diags.size());
    EXPECT_EQ("allow-syntax", diags[0].rule);
    EXPECT_EQ("determinism", diags[1].rule);
}

TEST(CheckRules, LayerClassification)
{
    EXPECT_EQ("otn", ot::check::classifyLayer("src/otn/sort.cc"));
    EXPECT_EQ("tools", ot::check::classifyLayer("tools/otsim.cc"));
    EXPECT_EQ("tests", ot::check::classifyLayer("tests/test_sim.cc"));
    EXPECT_EQ("", ot::check::classifyLayer("docs/notes.md"));
    EXPECT_TRUE(ot::check::allowedIncludes("analysis").size() == 2);
    EXPECT_TRUE(ot::check::allowedIncludes("tools").empty());
}

TEST(CheckRules, StaleAllowIsReported)
{
    std::vector<Diagnostic> diags =
        checkAs("src/otn/a.cc",
                "// otcheck:allow(determinism): was needed once\n"
                "int f() { return 2; }\n");
    ASSERT_EQ(1u, diags.size());
    EXPECT_EQ("unused-allow", diags[0].rule);
    EXPECT_EQ(1, diags[0].line);
}

TEST(CheckRules, AllowCoversWholeStatement)
{
    // The banned call sits two lines below the allow, but still
    // inside the statement the allow is attached to.
    EXPECT_TRUE(checkAs("src/otn/a.cc",
                        "// otcheck:allow(determinism): fixed fold\n"
                        "int f() { return 1 +\n"
                        "    2 +\n"
                        "    rand(); }\n")
                    .empty());
}

TEST(CheckRules, CatalogListsTheSixRules)
{
    std::vector<std::string> ids;
    for (const ot::check::RuleDoc &d : ot::check::ruleCatalog())
        ids.push_back(d.id);
    EXPECT_EQ((std::vector<std::string>{"determinism", "layering",
                                        "hotpath", "intrinsics",
                                        "allow-syntax", "unused-allow"}),
              ids);
    // The allow() escape hatch covers exactly the suppressible rules
    // (the two allow-meta rules themselves cannot be allowed away).
    for (const char *rule :
         {"determinism", "layering", "hotpath", "intrinsics"})
        EXPECT_TRUE(ot::check::knownRule(rule)) << rule;
    EXPECT_FALSE(ot::check::knownRule("allow-syntax"));
    EXPECT_FALSE(ot::check::knownRule("unused-allow"));
    // Rules that are gone (phase balance is the compiler's; the
    // call-graph and symbol-graph rules were removed) are unknown, and
    // an allow() naming one is an unknown-rule error.
    EXPECT_FALSE(ot::check::knownRule("accounting"));
    EXPECT_FALSE(ot::check::knownRule("unreachable"));
    EXPECT_FALSE(ot::check::knownRule("include-hygiene"));
    EXPECT_FALSE(ot::check::knownRule("determinism-taint"));
    std::vector<Diagnostic> diags =
        checkAs("src/otn/a.cc", "// otcheck:allow(accounting): x\n"
                                "int f() { return 2; }\n");
    ASSERT_EQ(1u, diags.size());
    EXPECT_EQ("allow-syntax", diags[0].rule);
    EXPECT_NE(std::string::npos, diags[0].message.find("unknown rule"));
}

} // namespace
