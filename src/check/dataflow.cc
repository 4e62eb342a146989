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
             "or move the wrapper into a layer inside the determinism "
             "scope, where the flat determinism rule audits it";
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

} // namespace ot::check
