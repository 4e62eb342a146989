#include "check/rules.hh"

#include <algorithm>
#include <utility>

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
        {"linalg", {"linalg", "simd", "vlsi"}},
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
          "simd", "trace", "vlsi"}},
        {"workload",
         {"workload", "topo", "otc", "otn", "graph", "layout", "linalg",
          "sim", "simd", "trace", "vlsi"}},
        {"scenario",
         {"scenario", "workload", "topo", "otc", "otn", "graph",
          "layout", "linalg", "sim", "simd", "trace", "vlsi"}},
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

/** True for any path with a `src` directory component: the tree the
 *  determinism rule and the umbrella ban cover. */
bool
underSrc(const std::string &path)
{
    for (const std::string &part : splitPath(path))
        if (part == "src")
            return true;
    return false;
}

/** Token text at index, or "" out of range. */
const std::string &
at(const std::vector<Token> &toks, std::size_t i)
{
    static const std::string empty;
    return i < toks.size() ? toks[i].text : empty;
}

/**
 * Is the identifier at `i` (known to be followed by `(`) a *call* in
 * free/static position?  Member calls (`x.time()`) are someone else's
 * method; declarations (`int time(...)`) are not calls.
 */
bool
freeCallContext(const std::vector<Token> &toks, std::size_t i)
{
    if (i == 0)
        return true;
    const std::string &prev = toks[i - 1].text;
    if (prev == "." || prev == "->")
        return false; // member call
    if (prev == "::") {
        // std::rand( / ::rand( are the banned spellings;
        // SomeClass::time( is someone's own static.
        if (i < 2)
            return true;
        return toks[i - 2].text == "std" ||
               toks[i - 2].kind != Token::Kind::Ident;
    }
    if (toks[i - 1].kind == Token::Kind::Ident)
        return prev == "return" || prev == "co_return" ||
               prev == "co_await" || prev == "case";
    return true; // after `;`, `{`, `(`, `,`, `=`, operators, ...
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
    const bool restricted = isSrcLayer(ctx.layer);
    const auto &allowed =
        restricted ? layerTable().at(ctx.layer) : kNoRestriction;

    for (const Include &inc : ctx.lexed.includes) {
        std::size_t slash = inc.path.find('/');
        if (slash == std::string::npos)
            continue; // system or same-directory include
        std::string dir = inc.path.substr(0, slash);

        if (dir == "orthotree") {
            if (underSrc(ctx.path))
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
runHotpath(const FileContext &ctx, const HotpathMap &hotpath,
           std::vector<Diagnostic> &out)
{
    if (!ctx.lexed.hotpath)
        return;
    // A project include resolves against src/ or the including file's
    // directory; one that names no file of this run is not judged.
    const std::string dir = ctx.path.substr(0, ctx.path.rfind('/') + 1);
    for (const Include &inc : ctx.lexed.includes) {
        if (inc.angled)
            continue;
        for (const std::string &path : {"src/" + inc.path, dir + inc.path}) {
            auto it = hotpath.find(path);
            if (it == hotpath.end())
                continue;
            if (!it->second)
                emit(out, ctx, inc.line, "hotpath",
                     "hotpath file includes \"" + inc.path +
                         "\", which carries no hotpath marker",
                     "include only <system> headers and hotpath files");
            break;
        }
    }
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

} // namespace

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

const std::vector<RuleDoc> &
ruleCatalog()
{
    static const std::vector<RuleDoc> catalog = {
        {"determinism",
         "no nondeterminism sources or iteration-order hazards in src/",
         true},
        {"layering", "#include edges must follow the layer DAG", true},
        {"hotpath",
         "hotpath files: no std::function, virtual or heap allocation; "
         "include only <system> and hotpath headers",
         true},
        {"intrinsics", "raw SIMD intrinsics only inside src/simd", true},
        {"allow-syntax",
         "allow() markers must name a known rule and justify it", false},
        {"unused-allow", "allow() markers that suppress nothing must go",
         false},
    };
    return catalog;
}

bool
knownRule(const std::string &rule)
{
    for (const RuleDoc &d : ruleCatalog())
        if (rule == d.id)
            return d.allowable;
    return false;
}

std::vector<Diagnostic>
runRules(const FileContext &ctx, const HotpathMap &hotpath)
{
    std::vector<Diagnostic> raw;
    if (underSrc(ctx.path))
        runDeterminism(ctx, raw);
    runLayering(ctx, raw);
    runHotpath(ctx, hotpath, raw);
    if (ctx.layer != "simd")
        runIntrinsics(ctx, raw);
    return applyAllows(ctx, std::move(raw));
}

} // namespace ot::check
