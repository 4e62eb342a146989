#include "check/dataflow.hh"

#include <map>
#include <set>
#include <string>
#include <utility>

namespace ot::check {

namespace {

const std::string &
at(const std::vector<Token> &toks, std::size_t i)
{
    static const std::string empty;
    return i < toks.size() ? toks[i].text : empty;
}

bool
isIdent(const std::vector<Token> &toks, std::size_t i)
{
    return i < toks.size() && toks[i].kind == Token::Kind::Ident;
}

bool
isPunct(const std::vector<Token> &toks, std::size_t i, const char *s)
{
    return i < toks.size() && toks[i].kind == Token::Kind::Punct &&
           toks[i].text == s;
}

/** Forward scan: index of the closer matching the opener at `open`. */
std::size_t
matchForward(const std::vector<Token> &toks, std::size_t open,
             const char *opener, const char *closer)
{
    int depth = 0;
    for (std::size_t j = open; j < toks.size(); ++j) {
        if (isPunct(toks, j, opener))
            ++depth;
        else if (isPunct(toks, j, closer) && --depth == 0)
            return j;
    }
    return toks.empty() ? 0 : toks.size() - 1;
}

/** Identifiers that are language keywords, not names. */
bool
isKeywordIdent(const std::string &t)
{
    static const std::set<std::string> kw = {
        "if",       "else",     "for",      "while",    "do",
        "return",   "switch",   "case",     "default",  "break",
        "continue", "goto",     "try",      "catch",    "throw",
        "new",      "delete",   "sizeof",   "alignof",  "decltype",
        "typeid",   "const",    "constexpr", "static",  "auto",
        "using",    "typename", "template", "operator", "this",
        "co_return", "co_await", "co_yield", "static_cast",
        "const_cast", "reinterpret_cast", "dynamic_cast", "noexcept",
        "true",     "false",    "nullptr",  "assert",
    };
    return kw.count(t) != 0;
}

// ---------------------------------------------------------------------
// determinism-taint
// ---------------------------------------------------------------------

/** Per-file line extents covered by well-formed allow(determinism) /
 *  allow(determinism-taint) markers — raw-source sanctioning for the
 *  taint source scan. */
std::vector<std::pair<int, int>>
determinismAllowExtents(const FileContext &ctx)
{
    std::vector<std::pair<int, int>> spans;
    for (const Allow &a : ctx.lexed.allows) {
        if (a.justification.empty())
            continue;
        if (a.rule != "determinism" && a.rule != "determinism-taint")
            continue;
        spans.push_back(allowExtent(ctx.lexed.tokens, a.line));
    }
    return spans;
}

bool
lineSanctioned(const std::vector<std::pair<int, int>> &spans, int line)
{
    for (const auto &s : spans)
        if (line >= s.first && line <= s.second)
            return true;
    return false;
}

struct TaintNode
{
    int file = -1;
    const FuncDef *def = nullptr;
    bool tainted = false;
    std::string chain; ///< "raw() → rand at src/x.cc:5"
};

struct TaintGraph
{
    std::vector<TaintNode> nodes;
    std::map<std::string, std::vector<int>> byName;
    /** Per node: names it references without calling (function
     *  pointers / kernel tables), with the reference line. */
    std::vector<std::vector<std::pair<std::string, int>>> addrRefs;
};

/** First banned identifier used raw in the definition's body, outside
 *  any sanctioned extent; "" when clean. */
std::string
taintSource(const FileContext &ctx, const FuncDef &def,
            const std::vector<std::pair<int, int>> &sanctioned)
{
    const auto &toks = ctx.lexed.tokens;
    for (std::size_t j = def.bodyFirst;
         j <= def.bodyLast && j < toks.size(); ++j) {
        if (toks[j].kind != Token::Kind::Ident)
            continue;
        for (const DeterminismBan &ban : determinismBans()) {
            if (toks[j].text != ban.name)
                continue;
            if (ban.callOnly &&
                !(at(toks, j + 1) == "(" && freeCallContext(toks, j)))
                continue;
            if (lineSanctioned(sanctioned, toks[j].line))
                continue;
            return std::string(ban.name) + " at " + ctx.path + ":" +
                   std::to_string(toks[j].line);
        }
    }
    return "";
}

/** Names a body references in non-call position that resolve to
 *  known definitions: the function-pointer / kernel-table edges. */
std::vector<std::pair<std::string, int>>
addressReferences(const FileContext &ctx, const FuncDef &def,
                  const std::map<std::string, std::vector<int>> &byName)
{
    std::vector<std::pair<std::string, int>> refs;
    const auto &toks = ctx.lexed.tokens;
    for (std::size_t j = def.bodyFirst;
         j <= def.bodyLast && j < toks.size(); ++j) {
        if (toks[j].kind != Token::Kind::Ident)
            continue;
        if (byName.find(toks[j].text) == byName.end())
            continue;
        if (at(toks, j + 1) == "(")
            continue; // a call; the call graph covers it
        const std::string &prev = at(toks, j - 1);
        if (prev == "." || prev == "->")
            continue; // member access, someone else's field
        refs.push_back({toks[j].text, toks[j].line});
    }
    return refs;
}

TaintGraph
buildTaintGraph(const std::vector<FileContext> &ctxs,
                std::size_t *rounds)
{
    TaintGraph g;
    for (std::size_t i = 0; i < ctxs.size(); ++i) {
        if (allowedIncludes(ctxs[i].layer).empty())
            continue; // src/-layer definitions only
        for (const FuncDef &f : ctxs[i].parsed.funcs) {
            if (f.name.empty())
                continue;
            TaintNode n;
            n.file = static_cast<int>(i);
            n.def = &f;
            g.byName[f.name].push_back(
                static_cast<int>(g.nodes.size()));
            g.nodes.push_back(std::move(n));
        }
    }

    std::vector<std::vector<std::pair<int, int>>> sanctioned(
        ctxs.size());
    for (std::size_t i = 0; i < ctxs.size(); ++i)
        sanctioned[i] = determinismAllowExtents(ctxs[i]);

    g.addrRefs.resize(g.nodes.size());
    for (std::size_t k = 0; k < g.nodes.size(); ++k) {
        TaintNode &n = g.nodes[k];
        const FileContext &ctx = ctxs[n.file];
        n.chain = taintSource(ctx, *n.def, sanctioned[n.file]);
        n.tainted = !n.chain.empty();
        g.addrRefs[k] = addressReferences(ctx, *n.def, g.byName);
    }

    // Monotone propagation: a clean node taints when some call or
    // address reference resolves to a non-empty, fully tainted
    // candidate set.
    std::size_t sweeps = 0;
    bool changed = true;
    while (changed) {
        changed = false;
        ++sweeps;
        for (std::size_t k = 0; k < g.nodes.size(); ++k) {
            TaintNode &n = g.nodes[k];
            if (n.tainted)
                continue;
            auto viaName = [&](const std::string &name) -> bool {
                auto it = g.byName.find(name);
                if (it == g.byName.end())
                    return false;
                const TaintNode *witness = nullptr;
                for (int c : it->second) {
                    if (!g.nodes[c].tainted)
                        return false;
                    if (!witness)
                        witness = &g.nodes[c];
                }
                if (!witness)
                    return false;
                n.tainted = true;
                n.chain = name + "() → " + witness->chain;
                return true;
            };
            for (const CallSite &c : n.def->calls)
                if (viaName(c.name)) {
                    changed = true;
                    break;
                }
            if (n.tainted)
                continue;
            for (const auto &r : g.addrRefs[k])
                if (viaName(r.first)) {
                    changed = true;
                    break;
                }
        }
    }
    if (rounds)
        *rounds = sweeps;
    return g;
}

void
emitTaint(std::vector<Diagnostic> &out, const FileContext &ctx,
          int line, const std::string &what, const std::string &name,
          const std::string &chain)
{
    Diagnostic d;
    d.file = ctx.path;
    d.line = line;
    d.rule = "determinism-taint";
    d.message = what + " '" + name +
                "' reaches a nondeterminism source outside the "
                "determinism scope: " +
                name + "() → " + chain;
    d.hint = "draw through a seeded ot::sim::Rng, "
             "or move the wrapper into a lane-reachable layer where "
             "the flat determinism rule audits it";
    out.push_back(std::move(d));
}

} // namespace

void
runDeterminismTaint(const std::vector<FileContext> &ctxs,
                    std::vector<Diagnostic> &out, std::size_t *rounds)
{
    TaintGraph g = buildTaintGraph(ctxs, rounds);

    /** All candidates tainted AND all defined out of scope? */
    auto boundary = [&](const std::string &name)
        -> const TaintNode * {
        auto it = g.byName.find(name);
        if (it == g.byName.end())
            return nullptr;
        const TaintNode *witness = nullptr;
        for (int c : it->second) {
            const TaintNode &n = g.nodes[c];
            if (!n.tainted)
                return nullptr;
            if (inDeterminismScope(ctxs[n.file].layer))
                return nullptr; // flat rule owns in-scope sources
            if (!witness)
                witness = &n;
        }
        return witness;
    };

    for (const FileContext &ctx : ctxs) {
        if (!inDeterminismScope(ctx.layer))
            continue;
        std::set<std::pair<int, std::string>> seen;
        for (const FuncDef &f : ctx.parsed.funcs) {
            for (const CallSite &c : f.calls) {
                const TaintNode *w = boundary(c.name);
                if (!w || !seen.insert({c.line, c.name}).second)
                    continue;
                emitTaint(out, ctx, c.line, "call to", c.name,
                          w->chain);
            }
            const auto &toks = ctx.lexed.tokens;
            for (std::size_t j = f.bodyFirst;
                 j <= f.bodyLast && j < toks.size(); ++j) {
                if (toks[j].kind != Token::Kind::Ident)
                    continue;
                if (at(toks, j + 1) == "(")
                    continue;
                const std::string &prev = at(toks, j - 1);
                if (prev == "." || prev == "->")
                    continue;
                const TaintNode *w = boundary(toks[j].text);
                if (!w ||
                    !seen.insert({toks[j].line, toks[j].text}).second)
                    continue;
                emitTaint(out, ctx, toks[j].line, "reference to",
                          toks[j].text, w->chain);
            }
        }
    }
}

// ---------------------------------------------------------------------
// by-reference parameter mutation summaries (for sched-purity)
// ---------------------------------------------------------------------

namespace {

/** Container methods that mutate the receiver. */
bool
isMutatingMethod(const std::string &t)
{
    static const std::set<std::string> m = {
        "push_back",  "emplace_back",  "pop_back", "push_front",
        "emplace_front", "pop_front",  "insert",   "emplace",
        "erase",      "clear",         "resize",   "assign",
        "append",     "reserve",       "swap",
    };
    return m.count(t) != 0;
}

/** One recorded mutation of a by-reference parameter. */
struct ParamMutation
{
    std::string where; ///< " at file:line" (+ " via g()" per hop)
    int line = 0; ///< line in the summarized function's own file
};

struct MutSummary
{
    std::vector<std::string> paramNames;
    std::vector<bool> byRef; ///< non-const reference or pointer
    std::map<std::size_t, std::vector<ParamMutation>> mutations;
};

/** Split the token range (open..close exclusive) at top-level commas;
 *  returns [begin, end) index pairs. */
std::vector<std::pair<std::size_t, std::size_t>>
splitArgs(const std::vector<Token> &toks, std::size_t open,
          std::size_t close)
{
    std::vector<std::pair<std::size_t, std::size_t>> parts;
    int depth = 0;
    std::size_t start = open + 1;
    for (std::size_t j = open + 1; j < close; ++j) {
        const std::string &t = toks[j].text;
        if (toks[j].kind == Token::Kind::Punct) {
            if (t == "(" || t == "[" || t == "{")
                ++depth;
            else if (t == ")" || t == "]" || t == "}")
                --depth;
            else if (t == "," && depth == 0) {
                parts.push_back({start, j});
                start = j + 1;
            }
        }
    }
    if (start < close || !parts.empty() || close > open + 1)
        parts.push_back({start, close});
    return parts;
}

/** Parse the parameter list at `paramOpen` into names and by-ref
 *  flags.  Defaulted parameters are truncated at their `=`. */
void
parseParams(const std::vector<Token> &toks, std::size_t paramOpen,
            std::vector<std::string> &names, std::vector<bool> &byRef)
{
    names.clear();
    byRef.clear();
    if (paramOpen == std::string::npos ||
        !isPunct(toks, paramOpen, "("))
        return;
    std::size_t close = matchForward(toks, paramOpen, "(", ")");
    for (const auto &part : splitArgs(toks, paramOpen, close)) {
        std::size_t limit = part.second;
        bool isConst = false, ref = false;
        std::string name;
        for (std::size_t j = part.first; j < limit; ++j) {
            const std::string &t = toks[j].text;
            if (t == "=") {
                break; // default value; the name came before it
            }
            if (toks[j].kind == Token::Kind::Ident) {
                if (t == "const")
                    isConst = true;
                else if (!isKeywordIdent(t))
                    name = t;
            } else if (t == "&" || t == "*") {
                ref = true;
            }
        }
        if (name.empty())
            continue; // unnamed or `void`
        names.push_back(name);
        byRef.push_back(ref && !isConst);
    }
}

/** A path through fields/subscripts starting at a root identifier. */
struct PathInfo
{
    std::size_t end = 0;     ///< first token past the path
    bool methodStop = false; ///< ended at a non-mutating method call
    std::string mutMethod;   ///< ended at this mutating method
    int mutLine = 0;
};

/** Walk `root . field [ expr ] -> field ...` from the identifier at
 *  `j`. */
PathInfo
matchPath(const std::vector<Token> &toks, std::size_t j)
{
    PathInfo p;
    std::size_t k = j + 1;
    while (k < toks.size()) {
        const std::string &t = toks[k].text;
        if ((t == "." || t == "->") && isIdent(toks, k + 1)) {
            if (at(toks, k + 2) == "(") {
                if (isMutatingMethod(toks[k + 1].text)) {
                    p.mutMethod = toks[k + 1].text;
                    p.mutLine = toks[k + 1].line;
                } else {
                    p.methodStop = true;
                }
                p.end = k;
                return p;
            }
            k += 2;
            continue;
        }
        if (t == "[") {
            k = matchForward(toks, k, "[", "]") + 1;
            continue;
        }
        break;
    }
    p.end = k;
    return p;
}

/** Does the write-operator test match at `end` (just past a path)?
 *  The lexer splits compound operators, so `+=` is `+ =`, `<<=` is
 *  `< < =`, postfix `++` is `+ +`. */
bool
writeOpAt(const std::vector<Token> &toks, std::size_t end)
{
    const std::string &a = at(toks, end);
    const std::string &b = at(toks, end + 1);
    const std::string &c = at(toks, end + 2);
    if (a == "=")
        return b != "="; // assignment, not ==
    if (a == "+" || a == "-") {
        if (b == "=")
            return true; // += -=
        if (b == a)
            return true; // postfix ++ / --
        return false;
    }
    if (a == "*" || a == "/" || a == "%" || a == "^" || a == "|" ||
        a == "&")
        return b == "=" &&
               c != "="; // *= /= %= ^= |= &= (not |== nonsense)
    if ((a == "<" && b == "<" && c == "=") ||
        (a == ">" && b == ">" && c == "="))
        return true; // <<= >>=
    return false;
}

/** Is the identifier at `j` preceded by prefix ++/--? */
bool
prefixIncDec(const std::vector<Token> &toks, std::size_t j)
{
    if (j < 2)
        return false;
    const std::string &a = at(toks, j - 2);
    const std::string &b = at(toks, j - 1);
    if (!((a == "+" && b == "+") || (a == "-" && b == "-")))
        return false;
    // `x + +y` / postfix of a previous expression both leave an
    // operand immediately before the pair.
    const std::string &before = at(toks, j - 3);
    return !(isIdent(toks, j - 3) || before == "]" || before == ")");
}

/** Summary builder for by-reference parameter mutations, memoized
 *  over the named src/-layer definitions. */
class MutTable
{
  public:
    explicit MutTable(const std::vector<FileContext> &ctxs)
        : _ctxs(ctxs)
    {
        for (std::size_t i = 0; i < ctxs.size(); ++i) {
            if (allowedIncludes(ctxs[i].layer).empty())
                continue;
            for (const FuncDef &f : ctxs[i].parsed.funcs)
                if (!f.name.empty())
                    _byName[f.name].push_back(
                        {static_cast<int>(i), &f});
        }
    }

    const MutSummary &
    summaryOf(int file, const FuncDef *f)
    {
        auto it = _done.find(f);
        if (it != _done.end())
            return it->second;
        if (!_inProgress.insert(f).second) {
            static const MutSummary empty;
            return empty; // recursion: no mutations claimed
        }
        MutSummary s = compute(file, f);
        _inProgress.erase(f);
        return _done[f] = s;
    }

  private:
    const std::vector<FileContext> &_ctxs;
    std::map<std::string,
             std::vector<std::pair<int, const FuncDef *>>>
        _byName;
    std::map<const FuncDef *, MutSummary> _done;
    std::set<const FuncDef *> _inProgress;

    MutSummary
    compute(int file, const FuncDef *f)
    {
        const FileContext &ctx = _ctxs[file];
        const auto &toks = ctx.lexed.tokens;
        MutSummary s;
        parseParams(toks, f->paramOpen, s.paramNames, s.byRef);
        if (s.paramNames.empty())
            return s;
        std::map<std::string, std::size_t> paramIdx;
        for (std::size_t p = 0; p < s.paramNames.size(); ++p)
            paramIdx[s.paramNames[p]] = p;
        auto record = [&](std::size_t p, int line) {
            if (!s.byRef[p])
                return;
            ParamMutation m;
            m.where =
                " at " + ctx.path + ":" + std::to_string(line);
            m.line = line;
            s.mutations[p].push_back(std::move(m));
        };

        for (std::size_t j = f->bodyFirst + 1;
             j < f->bodyLast && j < toks.size(); ++j) {
            if (toks[j].kind != Token::Kind::Ident)
                continue;
            const std::string &name = toks[j].text;
            auto pit = paramIdx.find(name);
            if (pit == paramIdx.end())
                continue;
            const std::string &prev = at(toks, j - 1);
            if (prev == "." || prev == "->")
                continue;
            std::size_t p = pit->second;

            // Direct write through the parameter?
            PathInfo path = matchPath(toks, j);
            // A non-mutating method call ends the walk entirely: a
            // prefix ++ then targets the method's return value (a
            // reference the callee owns), not the parameter.
            bool write = !path.methodStop &&
                         (!path.mutMethod.empty() ||
                          prefixIncDec(toks, j) ||
                          writeOpAt(toks, path.end));
            int line = path.mutLine ? path.mutLine : toks[j].line;
            if (write) {
                record(p, line);
                continue;
            }
            if (path.methodStop)
                continue;

            // Bare pass-through to another function: inherit its
            // mutation summary with parameter substitution.
            inheritCall(s, toks, j, p);
        }
        return s;
    }

    /** `g(a, p, b)` with `p` a bare by-ref parameter: fold g's
     *  mutations of that position into the caller's summary. */
    void
    inheritCall(MutSummary &s, const std::vector<Token> &toks,
                std::size_t j, std::size_t p)
    {
        // Find the innermost enclosing call `callee( ... p ... )`.
        // Scan backwards for `ident (` at one unclosed paren depth.
        int depth = 0;
        std::size_t open = std::string::npos;
        for (std::size_t k = j; k-- > 0;) {
            const std::string &t = toks[k].text;
            if (toks[k].kind != Token::Kind::Punct) {
                continue;
            }
            if (t == ")")
                ++depth;
            else if (t == "(") {
                if (depth == 0) {
                    open = k;
                    break;
                }
                --depth;
            } else if (t == ";" || t == "{" || t == "}") {
                break;
            }
        }
        if (open == std::string::npos || open == 0 ||
            !isIdent(toks, open - 1))
            return;
        const std::string &callee = toks[open - 1].text;
        if (isKeywordIdent(callee))
            return;
        const std::string &cprev = at(toks, open - 2);
        if (cprev == "." || cprev == "->")
            return; // member call: receiver unknown
        auto cit = _byName.find(callee);
        if (cit == _byName.end())
            return;
        std::size_t close = matchForward(toks, open, "(", ")");
        auto args = splitArgs(toks, open, close);
        // Which argument position is the bare `p`?
        std::size_t argPos = std::string::npos;
        for (std::size_t a = 0; a < args.size(); ++a) {
            std::size_t b = args[a].first, e = args[a].second;
            if (e == b + 1 && b == j)
                argPos = a;
            else if (e == b + 2 && isPunct(toks, b, "&") &&
                     b + 1 == j)
                argPos = a;
        }
        if (argPos == std::string::npos)
            return;

        // All candidates must mutate that position to claim anything.
        std::vector<ParamMutation> inherited;
        for (const auto &cand : cit->second) {
            if (cand.second->isCtor || cand.second->isDtor)
                return;
            const MutSummary &cs =
                summaryOf(cand.first, cand.second);
            auto mit = cs.mutations.find(argPos);
            if (mit == cs.mutations.end() || mit->second.empty())
                return;
            if (&cand == &cit->second.front()) {
                for (const ParamMutation &m : mit->second) {
                    ParamMutation mapped;
                    mapped.where = m.where + " via " + callee + "()";
                    mapped.line = toks[j].line;
                    inherited.push_back(std::move(mapped));
                }
            }
        }
        for (ParamMutation &m : inherited)
            s.mutations[p].push_back(std::move(m));
    }
};

} // namespace

// ---------------------------------------------------------------------
// sched-purity
// ---------------------------------------------------------------------

void
runSchedPurity(const std::vector<FileContext> &ctxs,
               std::vector<Diagnostic> &out)
{
    struct Target
    {
        int file = -1;
        const FuncDef *def = nullptr;
    };
    std::vector<Target> targets;
    for (std::size_t i = 0; i < ctxs.size(); ++i) {
        if (allowedIncludes(ctxs[i].layer).empty())
            continue;
        for (const Marker &mk : ctxs[i].lexed.pureMarkers) {
            const FuncDef *best = nullptr;
            for (const FuncDef &f : ctxs[i].parsed.funcs) {
                if (f.name.empty() || f.line < mk.line)
                    continue;
                if (!best || f.line < best->line)
                    best = &f;
            }
            if (best)
                targets.push_back({static_cast<int>(i), best});
        }
    }
    if (targets.empty())
        return;

    MutTable muts(ctxs);
    TaintGraph tg = buildTaintGraph(ctxs, nullptr);

    for (const Target &t : targets) {
        const FileContext &ctx = ctxs[t.file];
        const auto &toks = ctx.lexed.tokens;
        const FuncDef &f = *t.def;

        // The target plus any lambdas nested in its body (the parser
        // splits lambdas into their own definitions).
        std::vector<const FuncDef *> defs{&f};
        for (const FuncDef &g : ctx.parsed.funcs)
            if (g.name.empty() && g.bodyFirst > f.bodyFirst &&
                g.bodyLast < f.bodyLast)
                defs.push_back(&g);

        std::set<std::pair<int, std::string>> seen;
        auto flag = [&](int line, const std::string &msg,
                        const std::string &hint) {
            if (!seen.insert({line, msg}).second)
                return;
            Diagnostic d;
            d.file = ctx.path;
            d.line = line;
            d.rule = "sched-purity";
            d.message = msg;
            d.hint = hint;
            out.push_back(std::move(d));
        };
        const std::string head =
            "pure ranking function '" + f.name + "': ";

        // (a) By-reference argument mutation, with the summary's
        // cross-TU witness when the write happens in a callee.
        for (const FuncDef *d : defs) {
            const MutSummary &s = muts.summaryOf(t.file, d);
            for (const auto &entry : s.mutations) {
                std::size_t p = entry.first;
                if (p >= s.byRef.size() || !s.byRef[p])
                    continue; // by-value: mutating the copy is pure
                for (const ParamMutation &m : entry.second)
                    flag(m.line ? m.line : d->line,
                         head + "by-reference parameter '" +
                             s.paramNames[p] + "' is mutated" +
                             m.where,
                         "a ranking function must order, not "
                         "update — return the choice and let the "
                         "scenario engine apply it");
            }
        }

        // (b) Static local state (constants excepted) survives
        // across calls and makes the ranking order-dependent.
        for (std::size_t j = f.bodyFirst + 1;
             j < f.bodyLast && j < toks.size(); ++j) {
            if (!isIdent(toks, j) || toks[j].text != "static")
                continue;
            const std::string &nx = at(toks, j + 1);
            if (nx == "const" || nx == "constexpr")
                continue;
            flag(toks[j].line,
                 head + "static local state survives across calls",
                 "rank from the arguments alone; persistent state "
                 "makes the schedule depend on evaluation history");
        }

        // (c) Calls into the determinism-taint graph: a ranking
        // function drawing entropy breaks replay even when the flat
        // determinism rule cannot see the wrapper.
        for (const FuncDef *d : defs) {
            for (const CallSite &cs : d->calls) {
                auto it = tg.byName.find(cs.name);
                if (it == tg.byName.end())
                    continue;
                const TaintNode *witness = nullptr;
                bool all = true;
                for (int c : it->second) {
                    if (!tg.nodes[c].tainted) {
                        all = false;
                        break;
                    }
                    if (!witness)
                        witness = &tg.nodes[c];
                }
                if (!all || !witness)
                    continue;
                flag(cs.line,
                     head + "call to determinism-tainted '" +
                         cs.name + "': " + cs.name + "() → " +
                         witness->chain,
                     "rank deterministically; draw randomness from "
                     "a seeded sim::Rng outside the ranking "
                     "function");
            }
        }
    }
}

} // namespace ot::check
