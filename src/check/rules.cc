#include "check/rules.hh"

#include <algorithm>
#include <map>
#include <set>

#include "check/callgraph.hh"
#include "check/dataflow.hh"
#include "check/symgraph.hh"

namespace ot::check {

namespace {

const std::vector<std::string> kNoRestriction;

/**
 * The layer DAG, as observed includes: layer → layers it may include.
 * Kept in one table so DESIGN.md, this file and the fixtures can be
 * diffed against each other.  A layer always includes itself.
 */
const std::map<std::string, std::vector<std::string>> &
layerTable()
{
    static const std::map<std::string, std::vector<std::string>> t = {
        {"vlsi", {"vlsi"}},
        {"simd", {"simd", "vlsi"}},
        {"trace", {"trace", "vlsi"}},
        {"sim", {"sim", "trace", "vlsi"}},
        {"linalg", {"linalg", "vlsi"}},
        {"layout", {"layout", "vlsi"}},
        {"analysis", {"analysis", "vlsi"}},
        {"graph", {"graph", "linalg", "sim", "trace", "vlsi"}},
        {"otn",
         {"otn", "graph", "layout", "linalg", "sim", "simd", "trace",
          "vlsi"}},
        {"otc",
         {"otc", "otn", "graph", "layout", "linalg", "sim", "simd",
          "trace", "vlsi"}},
        {"topo",
         {"topo", "otc", "otn", "graph", "layout", "linalg", "sim",
          "trace", "vlsi"}},
        {"workload",
         {"workload", "topo", "otc", "otn", "graph", "layout", "linalg",
          "sim", "trace", "vlsi"}},
        {"scenario",
         {"scenario", "workload", "topo", "otc", "otn", "graph",
          "layout", "linalg", "sim", "trace", "vlsi"}},
        // The checker itself: standard library only, so it can never
        // deadlock on the layers it audits.
        {"check", {"check"}},
    };
    return t;
}

bool
isSrcLayer(const std::string &layer)
{
    return layerTable().count(layer) != 0;
}

std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : path) {
        if (c == '/') {
            if (!cur.empty())
                parts.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        parts.push_back(cur);
    return parts;
}

/** Token text at index, or "" out of range. */
const std::string &
at(const std::vector<Token> &toks, std::size_t i)
{
    static const std::string empty;
    return i < toks.size() ? toks[i].text : empty;
}

struct BannedName
{
    const char *name;
    bool callOnly; ///< only in free-call position `name(`
    const char *message;
    const char *hint;
};

const BannedName kDeterminismBans[] = {
    {"rand", true, "call to rand() is a nondeterminism source",
     "use ot::sim::Rng with an explicit seed"},
    {"srand", true, "call to srand() seeds global hidden state",
     "use ot::sim::Rng with an explicit seed"},
    {"random_device", false,
     "std::random_device draws entropy from the host",
     "use ot::sim::Rng with an explicit seed"},
    {"random_shuffle", false,
     "std::random_shuffle uses unspecified global randomness",
     "shuffle with ot::sim::Rng-driven std::swap loop"},
    {"time", true, "call to time() reads the wall clock",
     "model time lives in sim::TimeAccountant::now()"},
    {"clock", true, "call to clock() reads host CPU time",
     "model time lives in sim::TimeAccountant::now()"},
    {"clock_gettime", false, "clock_gettime() reads the wall clock",
     "model time lives in sim::TimeAccountant::now()"},
    {"gettimeofday", false, "gettimeofday() reads the wall clock",
     "model time lives in sim::TimeAccountant::now()"},
    {"system_clock", false, "std::chrono clocks read host time",
     "model time lives in sim::TimeAccountant::now()"},
    {"steady_clock", false, "std::chrono clocks read host time",
     "model time lives in sim::TimeAccountant::now()"},
    {"high_resolution_clock", false,
     "std::chrono clocks read host time",
     "model time lives in sim::TimeAccountant::now()"},
    {"getpid", false, "getpid() varies run to run",
     "derive ids from loop indices, not the host"},
    {"pthread_self", false, "pthread_self() is host-thread-dependent",
     "derive identity from the loop or instance index"},
    {"get_id", false,
     "thread ids are host-dependent and vary with OT_HOST_THREADS",
     "derive identity from the loop or instance index"},
    {"unordered_map", false,
     "std::unordered_map iteration order is unspecified",
     "use std::map or a sorted vector of pairs"},
    {"unordered_set", false,
     "std::unordered_set iteration order is unspecified",
     "use std::set or a sorted vector"},
    {"unordered_multimap", false,
     "std::unordered_multimap iteration order is unspecified",
     "use std::multimap or a sorted vector of pairs"},
    {"unordered_multiset", false,
     "std::unordered_multiset iteration order is unspecified",
     "use std::multiset or a sorted vector"},
};

const BannedName kHotpathBans[] = {
    {"virtual", false, "virtual dispatch in a hotpath file",
     "use flat value types (cf. otn::Sel / otc::CSel)"},
    {"new", false, "heap allocation in a hotpath file",
     "preallocate in setup code and reuse buffers"},
    {"malloc", false, "heap allocation in a hotpath file",
     "preallocate in setup code and reuse buffers"},
    {"calloc", false, "heap allocation in a hotpath file",
     "preallocate in setup code and reuse buffers"},
    {"realloc", false, "heap allocation in a hotpath file",
     "preallocate in setup code and reuse buffers"},
    {"make_unique", false, "heap allocation in a hotpath file",
     "preallocate in setup code and reuse buffers"},
    {"make_shared", false, "heap allocation in a hotpath file",
     "preallocate in setup code and reuse buffers"},
};

void
emit(std::vector<Diagnostic> &out, const FileContext &ctx, int line,
     const char *rule, const std::string &message,
     const std::string &hint)
{
    Diagnostic d;
    d.file = ctx.path;
    d.line = line;
    d.rule = rule;
    d.message = message;
    d.hint = hint;
    out.push_back(std::move(d));
}

void
runDeterminism(const FileContext &ctx, std::vector<Diagnostic> &out)
{
    const auto &toks = ctx.lexed.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != Token::Kind::Ident)
            continue;
        for (const BannedName &ban : kDeterminismBans) {
            if (toks[i].text != ban.name)
                continue;
            if (ban.callOnly &&
                !(at(toks, i + 1) == "(" && freeCallContext(toks, i)))
                continue;
            emit(out, ctx, toks[i].line, "determinism", ban.message,
                 ban.hint);
        }

        // Address-keyed associative containers: std::map/std::set
        // with a pointer in the key type iterate in address order.
        if ((toks[i].text == "map" || toks[i].text == "set" ||
             toks[i].text == "multimap" ||
             toks[i].text == "multiset") &&
            at(toks, i - 1) == "::" && at(toks, i - 2) == "std" &&
            at(toks, i + 1) == "<") {
            int depth = 0;
            for (std::size_t j = i + 1;
                 j < toks.size() && j < i + 64; ++j) {
                const std::string &t = toks[j].text;
                if (t == "<")
                    ++depth;
                else if (t == ">") {
                    if (--depth == 0)
                        break;
                } else if (t == "," && depth == 1) {
                    break; // end of the key type
                } else if (t == ";" || t == "{") {
                    break; // not a template argument list after all
                } else if (t == "*") {
                    emit(out, ctx, toks[j].line, "determinism",
                         "pointer-keyed std::" + toks[i].text +
                             " iterates in address order",
                         "key by a stable index or id instead");
                    break;
                }
            }
        }
    }
}

void
runLayering(const FileContext &ctx, std::vector<Diagnostic> &out)
{
    bool underSrc = false;
    for (const std::string &part : splitPath(ctx.path))
        if (part == "src")
            underSrc = true;

    const bool restricted = isSrcLayer(ctx.layer);
    const auto &allowed =
        restricted ? layerTable().at(ctx.layer) : kNoRestriction;

    for (const Include &inc : ctx.lexed.includes) {
        std::size_t slash = inc.path.find('/');
        if (slash == std::string::npos)
            continue; // system or same-directory include
        std::string dir = inc.path.substr(0, slash);

        if (dir == "orthotree") {
            if (underSrc)
                emit(out, ctx, inc.line, "layering",
                     "umbrella include \"orthotree/...\" from inside "
                     "src/",
                     "include the specific layer header instead");
            continue;
        }
        if (!restricted || layerTable().count(dir) == 0)
            continue;
        if (std::find(allowed.begin(), allowed.end(), dir) ==
            allowed.end())
            emit(out, ctx, inc.line, "layering",
                 "layer '" + ctx.layer + "' may not include '" + dir +
                     "/" + inc.path.substr(slash + 1) + "'",
                 "allowed from '" + ctx.layer +
                     "': see the layer DAG in DESIGN.md");
    }
}

void
runHotpath(const FileContext &ctx, std::vector<Diagnostic> &out)
{
    if (!ctx.lexed.hotpath)
        return;
    const auto &toks = ctx.lexed.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != Token::Kind::Ident)
            continue;
        // std::function specifically (a variable named `function` is
        // not dispatch).
        if (toks[i].text == "function" && at(toks, i - 1) == "::" &&
            at(toks, i - 2) == "std") {
            emit(out, ctx, toks[i].line, "hotpath",
                 "std::function (type-erased call) in a hotpath file",
                 "use flat value types (cf. otn::Sel / otc::CSel)");
            continue;
        }
        for (const BannedName &ban : kHotpathBans)
            if (toks[i].text == ban.name)
                emit(out, ctx, toks[i].line, "hotpath", ban.message,
                     ban.hint);
    }
}

// ---------------------------------------------------------------------
// intrinsics: raw SIMD intrinsics are confined to the simd layer
// ---------------------------------------------------------------------

/** <immintrin.h> and friends (x86), <arm_neon.h> and friends (ARM). */
bool
isIntrinsicHeader(const std::string &path)
{
    if (path.size() >= 8 &&
        path.compare(path.size() - 8, 8, "intrin.h") == 0)
        return true;
    return path == "arm_neon.h" || path == "arm_sve.h" ||
           path == "arm_acle.h";
}

/** __m256i / __m128d / __m512 ...: "__m" followed by a digit. */
bool
isX86VectorType(const std::string &t)
{
    return t.size() > 3 && t.compare(0, 3, "__m") == 0 &&
           t[3] >= '0' && t[3] <= '9';
}

/** uint64x2_t / float32x4_t ...: letters, digits, 'x', digits, "_t". */
bool
isNeonVectorType(const std::string &t)
{
    if (t.size() < 6 || t.compare(t.size() - 2, 2, "_t") != 0)
        return false;
    std::size_t i = 0;
    while (i < t.size() && t[i] >= 'a' && t[i] <= 'z')
        ++i;
    if (i == 0)
        return false;
    std::size_t digits = i;
    while (i < t.size() && t[i] >= '0' && t[i] <= '9')
        ++i;
    if (i == digits || i >= t.size() || t[i] != 'x')
        return false;
    digits = ++i;
    while (i < t.size() && t[i] >= '0' && t[i] <= '9')
        ++i;
    return i > digits && i + 2 == t.size();
}

void
runIntrinsics(const FileContext &ctx, std::vector<Diagnostic> &out)
{
    const char *hint =
        "vector code belongs in src/simd behind the KernelTable "
        "dispatch";
    for (const Include &inc : ctx.lexed.includes)
        if (isIntrinsicHeader(inc.path))
            emit(out, ctx, inc.line, "intrinsics",
                 "intrinsic header <" + inc.path +
                     "> included outside the simd layer",
                 hint);
    const auto &toks = ctx.lexed.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != Token::Kind::Ident)
            continue;
        const std::string &t = toks[i].text;
        // _mm_/_mm256_/_mm512_ calls and __m128/__m256i/... types.
        if (t.compare(0, 3, "_mm") == 0 || isX86VectorType(t)) {
            emit(out, ctx, toks[i].line, "intrinsics",
                 "x86 intrinsic '" + t + "' outside the simd layer",
                 hint);
            continue;
        }
        // NEON: vaddq_u64(...)-style calls and uint64x2_t types.
        if (isNeonVectorType(t) ||
            (t[0] == 'v' && t.find("q_") != std::string::npos &&
             at(toks, i + 1) == "("))
            emit(out, ctx, toks[i].line, "intrinsics",
                 "NEON intrinsic '" + t + "' outside the simd layer",
                 hint);
    }
}

// ---------------------------------------------------------------------
// hotpath-propagation: transitive hotpath cleanliness over the call
// graph
// ---------------------------------------------------------------------

void
runHotpathPropagation(const std::vector<FileContext> &ctxs,
                      const CallGraph &cg,
                      std::vector<Diagnostic> &out)
{
    for (std::size_t i = 0; i < ctxs.size(); ++i) {
        const FileContext &ctx = ctxs[i];
        if (!ctx.lexed.hotpath)
            continue;
        std::set<std::pair<int, std::string>> seen;
        for (const FuncDef &f : ctx.parsed.funcs) {
            for (const CallSite &c : f.calls) {
                auto it = cg.byName.find(c.name);
                if (it == cg.byName.end())
                    continue;
                bool anyOtherFile = false;
                bool allDirty = true;
                const CallNode *witness = nullptr;
                for (int k : it->second) {
                    const CallNode &n = cg.nodes[k];
                    if (n.file != static_cast<int>(i))
                        anyOtherFile = true;
                    if (!n.dirty) {
                        allDirty = false;
                        break;
                    }
                    if (!witness)
                        witness = &n;
                }
                // Same-file callees are already covered lexically by
                // the direct hotpath rule (the marker bans the
                // construct anywhere in the file).
                if (!anyOtherFile || !allDirty || !witness)
                    continue;
                if (!seen.insert({c.line, c.name}).second)
                    continue;
                emit(out, ctx, c.line, "hotpath-propagation",
                     "call to '" + c.name + "' reaches " +
                         witness->why,
                     "hotpath code must stay allocation- and "
                     "dispatch-free through every callee; "
                     "restructure or hoist the work");
            }
        }
    }
}

// ---------------------------------------------------------------------
// include-hygiene: unused includes and include-what-you-use
// ---------------------------------------------------------------------

std::string
pathStem(const std::string &path)
{
    std::size_t slash = path.rfind('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    std::size_t dot = base.rfind('.');
    return dot == std::string::npos ? base : base.substr(0, dot);
}

/** Spell a repo-relative header path the way project code includes
 *  it (without the leading src/). */
std::string
includeSpelling(const std::string &path)
{
    if (path.compare(0, 4, "src/") == 0)
        return path.substr(4);
    return path;
}

void
runIncludeHygiene(const std::vector<FileContext> &ctxs,
                  const SymGraph &sg, std::vector<Diagnostic> &out)
{
    for (std::size_t i = 0; i < ctxs.size(); ++i) {
        const FileContext &ctx = ctxs[i];
        const FileSyms &fs = sg.files[i];

        auto anyExportMentioned = [&](int h) {
            for (const std::string &e : sg.files[h].exports)
                if (fs.mentions.count(e))
                    return true;
            return false;
        };

        // Unused includes: a resolved project include must
        // contribute at least one referenced symbol, directly or as
        // a gateway to deeper headers.
        int ownHeader = -1;
        std::set<int> direct;
        for (std::size_t k = 0; k < fs.resolvedIncludes.size();
             ++k) {
            int g = fs.resolvedIncludes[k];
            if (g < 0)
                continue;
            direct.insert(g);
            if (pathStem(ctx.path) == pathStem(ctxs[g].path))
                ownHeader = g;
        }
        for (std::size_t k = 0; k < fs.resolvedIncludes.size();
             ++k) {
            int g = fs.resolvedIncludes[k];
            if (g < 0 || g == ownHeader)
                continue;
            const FileSyms &gs = sg.files[g];
            if (gs.exports.empty())
                continue; // nothing provable about this header
            bool opExport = false;
            for (const std::string &e : gs.exports)
                if (e.compare(0, 8, "operator") == 0)
                    opExport = true;
            if (opExport)
                continue; // operators are used without being named
            if (anyExportMentioned(g))
                continue;
            bool gateway = false;
            for (int h : gs.reachable)
                if (anyExportMentioned(h)) {
                    gateway = true;
                    break;
                }
            if (gateway)
                continue;
            const Include &inc = ctx.lexed.includes[k];
            emit(out, ctx, inc.line, "include-hygiene",
                 "unused include \"" + inc.path +
                     "\": nothing it declares (directly or "
                     "transitively) is referenced",
                 "remove the include, or reference what it "
                 "declares");
        }

        // Include-what-you-use: a symbol with a unique declaring
        // header must pull that header in directly, not lean on an
        // unrelated transitive path.  The file's own header is its
        // interface and exempts everything it reaches.
        std::set<int> viaOwn;
        if (ownHeader >= 0) {
            viaOwn = sg.files[ownHeader].reachable;
            viaOwn.insert(ownHeader);
        }
        std::map<int, std::pair<int, std::string>> missing;
        for (const auto &m : fs.mentions) {
            auto it = sg.declaringHeaders.find(m.first);
            if (it == sg.declaringHeaders.end() ||
                it->second.size() != 1)
                continue;
            int h = it->second[0];
            if (h == static_cast<int>(i) || direct.count(h) ||
                viaOwn.count(h))
                continue;
            if (!fs.reachable.count(h))
                continue; // forward-declared or macro-gated
            if (fs.exports.count(m.first))
                continue; // locally (re)defined name
            auto cur = missing.find(h);
            if (cur == missing.end() ||
                m.second < cur->second.first)
                missing[h] = {m.second, m.first};
        }
        for (const auto &mh : missing) {
            emit(out, ctx, mh.second.first, "include-hygiene",
                 "'" + mh.second.second + "' is declared in \"" +
                     ctxs[mh.first].path +
                     "\" which is only included transitively",
                 "include \"" +
                     includeSpelling(ctxs[mh.first].path) +
                     "\" directly");
        }
    }
}

} // namespace

/** Line extent an allow() marker covers: from its own line through
 *  the end of the statement beginning at or after it (`;` at paren/
 *  brace depth zero, or the close of a braced definition), at least
 *  one following line, at most 20. */
std::pair<int, int>
allowExtent(const std::vector<Token> &toks, int line)
{
    const int kCap = 20;
    int last = line + 1;
    std::size_t i = 0;
    while (i < toks.size() && toks[i].line < line)
        ++i;
    if (i >= toks.size() || toks[i].line > line + kCap)
        return {line, last};
    int paren = 0, brace = 0;
    bool sawBrace = false;
    for (std::size_t j = i; j < toks.size(); ++j) {
        if (toks[j].line > line + kCap)
            return {line, line + kCap};
        const std::string &t = toks[j].text;
        if (toks[j].kind != Token::Kind::Punct) {
            last = std::max(last, toks[j].line);
            continue;
        }
        last = std::max(last, toks[j].line);
        if (t == "(") {
            ++paren;
        } else if (t == ")") {
            if (paren > 0)
                --paren;
        } else if (t == "{") {
            ++brace;
            sawBrace = true;
        } else if (t == "}") {
            if (brace == 0)
                return {line, last}; // enclosing block ended
            if (--brace == 0 && sawBrace && paren == 0)
                return {line, last}; // braced definition closed
        } else if (t == ";" && paren == 0 && brace == 0) {
            return {line, last};
        }
    }
    return {line, last};
}

std::string
classifyLayer(const std::string &path)
{
    std::vector<std::string> parts = splitPath(path);
    for (std::size_t i = 0; i + 1 < parts.size(); ++i)
        if (parts[i] == "src")
            return parts[i + 1];
    for (const std::string &p : parts)
        if (p == "tools" || p == "tests" || p == "bench" ||
            p == "examples" || p == "include")
            return p;
    return "";
}

const std::vector<std::string> &
allowedIncludes(const std::string &layer)
{
    auto it = layerTable().find(layer);
    return it == layerTable().end() ? kNoRestriction : it->second;
}

bool
inDeterminismScope(const std::string &layer)
{
    return layer == "sim" || layer == "otn" || layer == "otc" ||
           layer == "topo" || layer == "workload" ||
           layer == "scenario";
}

const std::vector<DeterminismBan> &
determinismBans()
{
    static const std::vector<DeterminismBan> bans = [] {
        std::vector<DeterminismBan> v;
        for (const BannedName &b : kDeterminismBans)
            v.push_back({b.name, b.callOnly});
        return v;
    }();
    return bans;
}

const std::vector<RuleDoc> &
ruleCatalog()
{
    // SARIF ruleIndex order.
    static const std::vector<RuleDoc> catalog = {
        {"determinism",
         "No nondeterminism sources or iteration-order hazards in "
         "the determinism-scope layers",
         "Flat token scan over src/sim, src/otn, src/otc, src/topo, "
         "src/workload and src/scenario: banned identifiers (wall "
         "clocks, rand(), thread ids, std::unordered_*) and "
         "pointer-keyed std::map/std::set template arguments.",
         "call to rand() is a nondeterminism source",
         "only for constructs provably outside the replayed state, "
         "e.g. host-time diagnostics that never reach a report",
         true},
        {"layering",
         "#include edges must follow the layer DAG",
         "Every project include from a src/ layer is checked against "
         "the layer DAG in DESIGN.md; umbrella includes "
         "(orthotree/...) are banned inside src/.",
         "layer 'sim' may not include 'otn/network.hh'",
         "never — fix the dependency direction instead", true},
        {"hotpath",
         "Hotpath-marked files may not use std::function, virtual "
         "or heap allocation",
         "Flat token scan of files carrying the hotpath marker "
         "comment.",
         "heap allocation in a hotpath file",
         "only for provably cold paths inside a hotpath file "
         "(error handling, setup)", true},
        {"hotpath-propagation",
         "Hotpath functions may not reach banned constructs through "
         "any call chain in src/",
         "Dirty-function fixpoint over the project call graph: a "
         "definition using banned constructs taints every caller "
         "chain; calls from hotpath files to (all-candidate) dirty "
         "names are flagged with the witness chain.",
         "call to 'rebuild' reaches heap allocation via grow()",
         "only with a measurement showing the callee is cold at "
         "runtime", true},
        {"include-hygiene",
         "Includes must be used, and used symbols included directly",
         "Symbol graph over declared/exported names: each resolved "
         "project include must contribute a referenced symbol "
         "(directly or as a gateway), and a symbol with a unique "
         "declaring header must be included directly.",
         "unused include \"otn/mst.hh\": nothing it declares is "
         "referenced",
         "for includes kept for documentation or platform-gated "
         "code the scanner cannot see", true},
        {"allow-syntax",
         "allow() markers must name a known rule and carry a "
         "justification",
         "Validation of the escape markers themselves; not "
         "allowable, or escapes could suppress their own audit.",
         "otcheck:allow names unknown rule 'determinsm'", "never",
         false},
        {"unused-allow",
         "allow() markers that suppress nothing must be removed",
         "After filtering, any well-formed marker with zero "
         "suppressions is stale; not allowable, or escapes could "
         "outlive their reason.",
         "otcheck:allow(determinism) no longer suppresses anything",
         "never", false},
        {"intrinsics",
         "Raw SIMD intrinsics are confined to the simd layer; "
         "everything else goes through the KernelTable dispatch",
         "Flat scan for intrinsic headers, _mm*/__m* and NEON "
         "identifiers outside src/simd.",
         "x86 intrinsic '_mm256_add_epi64' outside the simd layer",
         "only for scalar bit-manipulation builtins misclassified "
         "as vector intrinsics", true},
        {"determinism-taint",
         "Functions reaching a raw nondeterminism source taint "
         "their callers; calls from the determinism scope into "
         "tainted out-of-scope code are flagged with the full "
         "source→sink chain",
         "Interprocedural taint over the call graph: sources are "
         "banned identifiers used outside an allow(determinism) "
         "extent; taint flows through calls and function-pointer "
         "references (all-candidate resolution); diagnosed at the "
         "boundary crossing so each defect surfaces once.",
         "call to 'jitter' reaches a nondeterminism source outside "
         "the determinism scope: jitter() → rand at "
         "src/analysis/noise.cc:12",
         "only when the tainted callee is provably outside the "
         "replayed state (logging, diagnostics)", true},
    };
    return catalog;
}

const RuleDoc *
findRuleDoc(const std::string &rule)
{
    for (const RuleDoc &d : ruleCatalog())
        if (rule == d.id)
            return &d;
    return nullptr;
}

bool
knownRule(const std::string &rule)
{
    const RuleDoc *d = findRuleDoc(rule);
    return d != nullptr && d->allowable;
}

std::vector<Diagnostic>
runFileRules(const FileContext &ctx)
{
    std::vector<Diagnostic> raw;
    if (inDeterminismScope(ctx.layer))
        runDeterminism(ctx, raw);
    runLayering(ctx, raw);
    runHotpath(ctx, raw);
    if (ctx.layer != "simd")
        runIntrinsics(ctx, raw);
    return raw;
}

std::vector<Diagnostic>
runProjectRules(const std::vector<FileContext> &ctxs,
                ProjectRuleStats *stats)
{
    std::vector<Diagnostic> out;
    SymGraph sg = buildSymGraph(ctxs);
    CallGraph cg = buildCallGraph(ctxs);
    runHotpathPropagation(ctxs, cg, out);
    runIncludeHygiene(ctxs, sg, out);
    std::size_t taintRounds = 0;
    runDeterminismTaint(ctxs, out, &taintRounds);
    if (stats) {
        for (const FileContext &ctx : ctxs)
            stats->functionsAnalyzed += ctx.parsed.funcs.size();
        stats->taintRounds = taintRounds;
    }
    return out;
}

std::vector<Diagnostic>
applyAllows(const FileContext &ctx, std::vector<Diagnostic> diags)
{
    struct Extent
    {
        int first = 0, last = 0;
        bool wellFormed = false;
        int uses = 0;
    };
    std::vector<Extent> exts;
    exts.reserve(ctx.lexed.allows.size());
    for (const Allow &a : ctx.lexed.allows) {
        Extent e;
        std::pair<int, int> span =
            allowExtent(ctx.lexed.tokens, a.line);
        e.first = span.first;
        e.last = span.second;
        e.wellFormed = !a.rule.empty() && knownRule(a.rule) &&
                       !a.justification.empty();
        exts.push_back(e);
    }

    std::vector<Diagnostic> out;
    for (Diagnostic &d : diags) {
        bool suppressed = false;
        for (std::size_t k = 0; k < exts.size(); ++k) {
            const Allow &a = ctx.lexed.allows[k];
            if (exts[k].wellFormed && a.rule == d.rule &&
                d.line >= exts[k].first && d.line <= exts[k].last) {
                ++exts[k].uses;
                suppressed = true;
                break;
            }
        }
        if (!suppressed)
            out.push_back(std::move(d));
    }

    // Validate the markers themselves; a well-formed marker that
    // suppresses nothing is stale and must go.
    for (std::size_t k = 0; k < ctx.lexed.allows.size(); ++k) {
        const Allow &a = ctx.lexed.allows[k];
        if (a.rule.empty() || !knownRule(a.rule)) {
            std::string ruleList;
            for (const RuleDoc &d : ruleCatalog()) {
                if (!d.allowable)
                    continue;
                if (!ruleList.empty())
                    ruleList += ", ";
                ruleList += d.id;
            }
            emit(out, ctx, a.line, "allow-syntax",
                 "otcheck:allow names unknown rule '" + a.rule + "'",
                 "rules: " + ruleList);
        }
        else if (a.justification.empty())
            emit(out, ctx, a.line, "allow-syntax",
                 "otcheck:allow(" + a.rule + ") without justification",
                 "write otcheck:allow(" + a.rule +
                     "): <why this is safe>");
        else if (exts[k].uses == 0)
            emit(out, ctx, a.line, "unused-allow",
                 "otcheck:allow(" + a.rule +
                     ") no longer suppresses anything",
                 "the code it excused is gone or clean; remove the "
                 "marker");
    }

    std::sort(out.begin(), out.end(),
              [](const Diagnostic &l, const Diagnostic &r) {
                  if (l.line != r.line)
                      return l.line < r.line;
                  return l.rule < r.rule;
              });
    return out;
}

std::vector<Diagnostic>
runRules(const FileContext &ctx)
{
    std::vector<FileContext> one(1, ctx);
    std::vector<Diagnostic> raw = runFileRules(one[0]);
    std::vector<Diagnostic> proj = runProjectRules(one);
    raw.insert(raw.end(), proj.begin(), proj.end());
    return applyAllows(one[0], std::move(raw));
}

} // namespace ot::check
