/**
 * @file
 * Tests for otcheck (src/check): the lexer, each rule family, the
 * fixture corpus under tests/check/, the SARIF emitter, and — the
 * gate the tool exists for — that the shipped src/ + tools/ + bench/
 * tree checks clean while seeded violations do not.
 */

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/checker.hh"
#include "check/sarif.hh"

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

/** Run several fixtures as one project (cross-file rules need it). */
std::vector<Diagnostic>
checkFixtureProject(const std::vector<std::string> &names)
{
    const std::string dir = OT_CHECK_FIXTURE_DIR;
    std::vector<ot::check::SourceFile> files;
    for (const std::string &name : names)
        files.push_back({"tests/check/" + name, slurp(dir + "/" + name)});
    return ot::check::checkProject(files).diagnostics;
}

// The hotpath-propagation rule only fires across translation units:
// each fixture alone is silent, together they must reproduce exactly
// the bad file's annotations.
TEST(CheckFixtures, TransitiveHotpathProject)
{
    const std::string dir = OT_CHECK_FIXTURE_DIR;
    Findings expected =
        expectedFindings(slurp(dir + "/bad_hotpath_transitive.cc"));
    ASSERT_FALSE(expected.empty());
    Findings actual = findingsOf(checkFixtureProject(
        {"fixture_hotpath_helper.cc", "bad_hotpath_transitive.cc",
         "good_hotpath_transitive.cc"}));
    EXPECT_EQ(expected, actual)
        << "expected:\n" << show(expected) << "actual:\n" << show(actual);
}

TEST(CheckFixtures, IncludeHygieneProject)
{
    const std::string dir = OT_CHECK_FIXTURE_DIR;
    Findings expected =
        expectedFindings(slurp(dir + "/bad_include_hygiene.cc"));
    ASSERT_FALSE(expected.empty());
    Findings actual = findingsOf(checkFixtureProject(
        {"fixture_unused.hh", "fixture_deep.hh", "fixture_gateway.hh",
         "bad_include_hygiene.cc", "good_include_hygiene.cc"}));
    EXPECT_EQ(expected, actual)
        << "expected:\n" << show(expected) << "actual:\n" << show(actual);
}

// The determinism-taint rule fires only at the scope boundary: the
// workload-layer sink calls a wrapper that is two call-graph hops
// from the banned primitive, and the diagnostic must spell out the
// whole source → sink witness chain.  The good sink crosses the same
// boundary toward a clean helper and must stay silent.
TEST(CheckFixtures, DeterminismTaintProject)
{
    const std::string dir = OT_CHECK_FIXTURE_DIR;
    Findings expected =
        expectedFindings(slurp(dir + "/bad_taint_sink.cc"));
    ASSERT_FALSE(expected.empty());
    std::vector<Diagnostic> diags = checkFixtureProject(
        {"fixture_taint_noise.cc", "fixture_taint_wrapper.cc",
         "bad_taint_sink.cc", "good_taint_sink.cc"});
    Findings actual = findingsOf(diags);
    EXPECT_EQ(expected, actual)
        << "expected:\n" << show(expected) << "actual:\n" << show(actual);
    ASSERT_EQ(1u, diags.size());
    EXPECT_EQ("determinism-taint", diags[0].rule);
    EXPECT_NE(std::string::npos,
              diags[0].message.find(
                  "fixtureJitter() → fixtureRawNoise() → rand at "
                  "src/analysis/fixture_taint_noise.cc:"))
        << diags[0].message;
    EXPECT_NE(std::string::npos,
              diags[0].hint.find("inside the determinism scope"))
        << diags[0].hint;
}

// Taint also flows through non-call references: a kernel table that
// stores &fixtureRawNoise hands the nondeterminism to whoever invokes
// the entry, so the reference itself is the boundary diagnostic.
TEST(CheckFixtures, TaintThroughFunctionPointerTable)
{
    const std::string dir = OT_CHECK_FIXTURE_DIR;
    Findings expected =
        expectedFindings(slurp(dir + "/bad_taint_table.cc"));
    ASSERT_FALSE(expected.empty());
    std::vector<Diagnostic> diags = checkFixtureProject(
        {"fixture_taint_noise.cc", "bad_taint_table.cc"});
    Findings actual = findingsOf(diags);
    EXPECT_EQ(expected, actual)
        << "expected:\n" << show(expected) << "actual:\n" << show(actual);
    ASSERT_EQ(1u, diags.size());
    EXPECT_NE(std::string::npos,
              diags[0].message.find("reference to"))
        << diags[0].message;
}

// A scheduler ranking function that draws entropy through a wrapper
// two call-graph hops from rand(): the call site looks clean, and
// only the taint walk connects it to the banned primitive, with the
// whole source → sink chain spelled out.
TEST(CheckFixtures, SchedPurityTaintProject)
{
    const std::string dir = OT_CHECK_FIXTURE_DIR;
    Findings expected =
        expectedFindings(slurp(dir + "/bad_sched_taint.cc"));
    ASSERT_FALSE(expected.empty());
    std::vector<Diagnostic> diags = checkFixtureProject(
        {"fixture_taint_noise.cc", "fixture_taint_wrapper.cc",
         "bad_sched_taint.cc"});
    Findings actual = findingsOf(diags);
    EXPECT_EQ(expected, actual)
        << "expected:\n" << show(expected) << "actual:\n" << show(actual);
    ASSERT_EQ(1u, diags.size());
    EXPECT_EQ("determinism-taint", diags[0].rule);
    EXPECT_NE(std::string::npos,
              diags[0].message.find(
                  "fixtureJitter() → fixtureRawNoise() → rand at "
                  "src/analysis/fixture_taint_noise.cc:"))
        << diags[0].message;
}

// The witness chain must survive into SARIF unchanged — code-scanning
// consumers see the same source → sink story the terminal does.
TEST(CheckSarif, TaintWitnessChainIsEmitted)
{
    ot::check::Report report;
    report.diagnostics = checkFixtureProject(
        {"fixture_taint_noise.cc", "fixture_taint_wrapper.cc",
         "bad_taint_sink.cc", "good_taint_sink.cc"});
    ASSERT_EQ(1u, report.diagnostics.size());
    report.files = {report.diagnostics[0].file};
    std::string sarif = ot::check::renderSarif(report);
    EXPECT_NE(std::string::npos,
              sarif.find("\"ruleId\": \"determinism-taint\""));
    EXPECT_NE(std::string::npos,
              sarif.find("fixtureJitter() → fixtureRawNoise() → "
                         "rand at "
                         "src/analysis/fixture_taint_noise.cc:"))
        << sarif;
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

TEST(CheckTree, ShippedTreeIsClean)
{
    const std::string root = OT_CHECK_SOURCE_ROOT;
    std::vector<std::string> files = ot::check::collectFiles(root);
    EXPECT_GT(files.size(), 80u) << "directory walk found too little";
    ot::check::Report report = ot::check::checkTree(root, files);
    EXPECT_TRUE(report.diagnostics.empty())
        << ot::check::renderText(report);
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

TEST(CheckRules, DeterminismScopedToLaneLayers)
{
    const std::string body = "int f() { return rand(); }\n";
    EXPECT_EQ(1u, checkAs("src/sim/a.cc", body).size());
    EXPECT_EQ(1u, checkAs("src/otc/a.cc", body).size());
    // Host-side layers may use host randomness.
    EXPECT_TRUE(checkAs("src/analysis/a.cc", body).empty());
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

TEST(CheckRules, JsonOutputIsWellFormed)
{
    ot::check::Report report;
    report.files = {"src/otn/a.cc"};
    report.diagnostics = checkAs(
        "src/otn/a.cc", "int f() { return rand(); }\n");
    ASSERT_EQ(1u, report.diagnostics.size());
    std::string json = ot::check::renderJson(report);
    EXPECT_EQ('[', json.front());
    EXPECT_NE(std::string::npos,
              json.find("\"rule\": \"determinism\""));
    EXPECT_NE(std::string::npos, json.find("\"line\": 1"));
    // Balanced brackets/braces as a cheap well-formedness probe.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
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

// ---------------------------------------------------------------
// SARIF output.

TEST(CheckSarif, OutputIsWellFormed)
{
    ot::check::Report report;
    report.files = {"src/otn/a.cc"};
    report.diagnostics = checkAs(
        "src/otn/a.cc", "int f() { return rand(); }\n");
    ASSERT_EQ(1u, report.diagnostics.size());
    std::string sarif = ot::check::renderSarif(report);
    EXPECT_NE(std::string::npos, sarif.find("\"version\": \"2.1.0\""));
    EXPECT_NE(std::string::npos, sarif.find("\"$schema\""));
    EXPECT_NE(std::string::npos,
              sarif.find("\"ruleId\": \"determinism\""));
    EXPECT_NE(std::string::npos, sarif.find("\"startLine\": 1"));
    EXPECT_NE(std::string::npos, sarif.find("\"uri\": \"src/otn/a.cc\""));
    EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '{'),
              std::count(sarif.begin(), sarif.end(), '}'));
    EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '['),
              std::count(sarif.begin(), sarif.end(), ']'));
}

TEST(CheckSarif, EveryRuleIsDeclared)
{
    // Each rule a diagnostic can carry must appear in the SARIF
    // driver's rule table (code scanning rejects dangling ruleIds).
    ot::check::Report report;
    std::string sarif = ot::check::renderSarif(report);
    for (const char *rule :
         {"determinism", "layering", "hotpath", "hotpath-propagation",
          "include-hygiene", "allow-syntax", "unused-allow",
          "intrinsics", "determinism-taint"}) {
        EXPECT_NE(std::string::npos,
                  sarif.find("\"id\": \"" + std::string(rule) + "\""))
            << rule;
    }
    EXPECT_EQ(9u, ot::check::ruleCatalog().size());
    // The allow() escape hatch covers exactly the suppressible rules
    // (the two allow-meta rules themselves cannot be allowed away).
    for (const char *rule :
         {"determinism", "layering", "hotpath", "hotpath-propagation",
          "include-hygiene", "intrinsics", "determinism-taint"})
        EXPECT_TRUE(ot::check::knownRule(rule)) << rule;
    EXPECT_FALSE(ot::check::knownRule("allow-syntax"));
    EXPECT_FALSE(ot::check::knownRule("unused-allow"));
    // Phase balance is enforced by the compiler (only ScopedPhase can
    // open a phase), so the accounting and unreachable rules are gone
    // and an allow() naming one is an unknown-rule error.
    EXPECT_FALSE(ot::check::knownRule("accounting"));
    EXPECT_FALSE(ot::check::knownRule("unreachable"));
    std::vector<Diagnostic> diags =
        checkAs("src/otn/a.cc", "// otcheck:allow(accounting): x\n"
                                "int f() { return 2; }\n");
    ASSERT_EQ(1u, diags.size());
    EXPECT_EQ("allow-syntax", diags[0].rule);
    EXPECT_NE(std::string::npos, diags[0].message.find("unknown rule"));
}

} // namespace
