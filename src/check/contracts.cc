#include "check/contracts.hh"

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/cfg.hh"

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

bool
isAccessSpecifier(const std::string &t)
{
    return t == "public" || t == "protected" || t == "private" ||
           t == "virtual";
}

/** Scan one class head starting at the `class`/`struct` keyword.
 *  Returns true (and fills `info` except for the virtual/abstract
 *  body facts) only for a real definition with a brace-enclosed
 *  body; forward declarations, `enum class`, template parameter
 *  lists and friend declarations are rejected. */
bool
scanClassHead(const std::vector<Token> &toks, std::size_t j,
              ClassInfo &info)
{
    if (at(toks, j - 1) == "enum" || at(toks, j - 1) == "friend")
        return false;
    if (!isIdent(toks, j + 1) || !isIdent(toks, j))
        return false;
    info.name = toks[j + 1].text;
    info.line = toks[j + 1].line;
    std::size_t k = j + 2;
    if (at(toks, k) == "final")
        ++k;
    // Between the name and the body only a base-clause may appear.
    // Any other shape (`>` closing a template parameter list, `(`,
    // `=`, `;`) means this is not a class definition.
    bool inBases = false;
    int angle = 0;
    std::string lastBase;
    for (; k < toks.size(); ++k) {
        const std::string &t = toks[k].text;
        if (t == "<") {
            ++angle;
            continue;
        }
        if (t == ">") {
            if (angle == 0)
                return false;
            --angle;
            continue;
        }
        if (angle > 0)
            continue;
        if (t == "{") {
            info.bodyFirst = k;
            info.bodyLast = matchForward(toks, k, "{", "}");
            if (inBases && !lastBase.empty())
                info.bases.push_back(lastBase);
            return true;
        }
        if (t == ":") {
            inBases = true;
            continue;
        }
        if (t == "::")
            continue;
        if (t == ",") {
            if (!inBases)
                return false;
            if (!lastBase.empty())
                info.bases.push_back(lastBase);
            lastBase.clear();
            continue;
        }
        if (isIdent(toks, k)) {
            if (!inBases)
                return false;
            if (!isAccessSpecifier(t))
                lastBase = t; // last identifier wins: `topo::Machine`
            continue;
        }
        return false; // `;`, `(`, `=`, `&`, ... — not a definition
    }
    return false;
}

/** Body facts: pure-virtual presence. */
void
scanClassBody(const std::vector<Token> &toks, ClassInfo &info)
{
    for (std::size_t m = info.bodyFirst + 1; m < info.bodyLast; ++m) {
        // Pure-virtual declaration: `... ) ... = 0 ;` — the previous
        // token gate keeps `int _x = 0;` member initialisers out.
        if (isPunct(toks, m, "=") && at(toks, m + 1) == "0" &&
            isPunct(toks, m + 2, ";")) {
            const std::string &p = at(toks, m - 1);
            if (p == ")" || p == "const" || p == "override" ||
                p == "noexcept")
                info.isAbstract = true;
        }
    }
}

/** True when the class body declares a member function `name`
 *  (declaration or inline definition; return type required, so a
 *  call `name(...)` inside an inline body does not count... it would
 *  need an identifier return type right before it, which call sites
 *  inside statements can also have — the heuristic errs towards
 *  counting, which only ever *suppresses* a fallback finding). */
bool
declaresMember(const std::vector<Token> &toks, const ClassInfo &info,
               const std::string &name)
{
    for (std::size_t m = info.bodyFirst + 1; m < info.bodyLast; ++m) {
        if (!isIdent(toks, m) || toks[m].text != name)
            continue;
        if (!isPunct(toks, m + 1, "("))
            continue;
        const std::string &p = at(toks, m - 1);
        if ((isIdent(toks, m - 1) && p != "return" && p != "new") ||
            p == "&" || p == "*" || p == ">")
            return true;
    }
    return false;
}

/** The three per-primitive accounting hooks every registered machine
 *  is expected to describe itself with. */
const char *const kHooks[] = {"exchangeStepCost", "broadcastCost",
                              "reduceCost"};

/** One `reg.add({"name", ...})` registration site. */
struct Registration
{
    std::string name; ///< registry name string, "" if none found
    int file = -1;
    int line = 1;
    int classIdx = -1; ///< resolved machine class, -1 when unknown
};

/** Map function name → class index for factories whose body contains
 *  `make_unique<SomeKnownClass>` — resolves the `buildMot` pattern
 *  where the registered class never appears at the add() site. */
std::map<std::string, int>
factoryClasses(const std::vector<FileContext> &ctxs,
               const ClassGraph &cg)
{
    std::map<std::string, int> out;
    for (const FileContext &ctx : ctxs) {
        if (allowedIncludes(ctx.layer).empty())
            continue;
        const auto &toks = ctx.lexed.tokens;
        for (const FuncDef &f : ctx.parsed.funcs) {
            if (f.name.empty())
                continue;
            for (std::size_t m = f.bodyFirst;
                 m < f.bodyLast && m + 2 < toks.size(); ++m) {
                if (!isIdent(toks, m) ||
                    toks[m].text != "make_unique")
                    continue;
                if (!isPunct(toks, m + 1, "<") ||
                    !isIdent(toks, m + 2))
                    continue;
                auto it = cg.byName.find(toks[m + 2].text);
                if (it == cg.byName.end())
                    continue;
                out.emplace(f.name, it->second);
                break;
            }
        }
    }
    return out;
}

/** Collect the registration sites: member calls `x.add({...})` (or
 *  `->add`) in topo-layer files whose argument list contains a brace
 *  initialiser with a string literal — the registry idiom.  The
 *  registered class is the first identifier in the argument range
 *  naming a known class, else a known factory's target class. */
std::vector<Registration>
collectRegistrations(const std::vector<FileContext> &ctxs,
                     const ClassGraph &cg)
{
    std::map<std::string, int> factories = factoryClasses(ctxs, cg);
    std::vector<Registration> regs;
    for (std::size_t i = 0; i < ctxs.size(); ++i) {
        if (ctxs[i].layer != "topo")
            continue;
        const auto &toks = ctxs[i].lexed.tokens;
        for (std::size_t j = 0; j + 2 < toks.size(); ++j) {
            if (!isIdent(toks, j) || toks[j].text != "add")
                continue;
            if (!isPunct(toks, j + 1, "(") ||
                !isPunct(toks, j + 2, "{"))
                continue;
            const std::string &p = at(toks, j - 1);
            if (p != "." && p != "->")
                continue;
            std::size_t close = matchForward(toks, j + 1, "(", ")");
            Registration r;
            r.file = static_cast<int>(i);
            r.line = toks[j].line;
            // The registry name is the first string literal inside
            // the call's line span (string contents live out-of-band
            // in source order; the name is always the first field of
            // the brace initialiser).
            int lo = toks[j].line;
            int hi = toks[close].line;
            for (const StrLit &s : ctxs[i].lexed.strings) {
                if (s.line < lo)
                    continue;
                if (s.line > hi)
                    break;
                r.name = s.text;
                break;
            }
            for (std::size_t m = j + 2; m < close; ++m) {
                if (!isIdent(toks, m))
                    continue;
                auto cit = cg.byName.find(toks[m].text);
                if (cit != cg.byName.end()) {
                    r.classIdx = cit->second;
                    break;
                }
                auto fit = factories.find(toks[m].text);
                if (fit != factories.end()) {
                    r.classIdx = fit->second;
                    break;
                }
            }
            regs.push_back(std::move(r));
            j = close;
        }
    }
    return regs;
}

/** Root ancestors of class `idx` (classes in the graph with no
 *  resolvable base), via upward walk with a cycle guard. */
std::set<int>
hierarchyRoots(const ClassGraph &cg, int idx)
{
    std::set<int> roots;
    std::set<int> seen;
    std::vector<int> work{idx};
    while (!work.empty()) {
        int c = work.back();
        work.pop_back();
        if (!seen.insert(c).second)
            continue;
        bool resolvedBase = false;
        for (const std::string &b : cg.classes[c].bases) {
            auto it = cg.byName.find(b);
            if (it != cg.byName.end()) {
                resolvedBase = true;
                work.push_back(it->second);
            }
        }
        if (!resolvedBase)
            roots.insert(c);
    }
    return roots;
}

/** Nearest ancestor (breadth-first over bases) for which `pred`
 *  holds; -1 when none. */
template <typename Pred>
int
nearestAncestor(const ClassGraph &cg, int idx, Pred pred)
{
    std::set<int> seen{idx};
    std::vector<int> frontier{idx};
    while (!frontier.empty()) {
        std::vector<int> next;
        for (int c : frontier) {
            for (const std::string &b : cg.classes[c].bases) {
                auto it = cg.byName.find(b);
                if (it == cg.byName.end() ||
                    !seen.insert(it->second).second)
                    continue;
                if (pred(cg.classes[it->second]))
                    return it->second;
                next.push_back(it->second);
            }
        }
        frontier = std::move(next);
    }
    return -1;
}

} // namespace

ClassGraph
buildClassGraph(const std::vector<FileContext> &ctxs)
{
    ClassGraph cg;
    for (std::size_t i = 0; i < ctxs.size(); ++i) {
        if (allowedIncludes(ctxs[i].layer).empty())
            continue;
        const auto &toks = ctxs[i].lexed.tokens;
        for (std::size_t j = 0; j + 1 < toks.size(); ++j) {
            if (!isIdent(toks, j) || (toks[j].text != "class" &&
                                      toks[j].text != "struct"))
                continue;
            ClassInfo info;
            if (!scanClassHead(toks, j, info))
                continue;
            info.file = static_cast<int>(i);
            scanClassBody(toks, info);
            cg.byName.emplace(info.name,
                              static_cast<int>(cg.classes.size()));
            cg.classes.push_back(std::move(info));
        }
    }
    return cg;
}

void
runTopoContracts(const std::vector<FileContext> &ctxs,
                 const ClassGraph &cg, std::vector<Diagnostic> &out)
{
    std::vector<Registration> regs = collectRegistrations(ctxs, cg);

    // (a) Registry-name collisions: the name keys the NetworkCache
    // and the spec grammar, so a duplicate silently shadows.
    std::map<std::string, const Registration *> first;
    for (const Registration &r : regs) {
        if (r.name.empty())
            continue;
        auto [it, inserted] = first.emplace(r.name, &r);
        if (inserted)
            continue;
        Diagnostic d;
        d.file = ctxs[r.file].path;
        d.line = r.line;
        d.rule = "topo-contract";
        d.message = "registry name '" + r.name +
                    "' is registered more than once (first at " +
                    ctxs[it->second->file].path + ":" +
                    std::to_string(it->second->line) + ")";
        d.hint = "registry names key the network cache and the spec "
                 "grammar; duplicate entries shadow silently — pick "
                 "a unique token";
        out.push_back(std::move(d));
    }

    // (b) Hook fallback: a registered machine that does not declare
    // all three accounting hooks in its own body is costing itself
    // with an ancestor's microarchitecture description.
    std::set<int> registered;
    bool unresolved = false;
    for (const Registration &r : regs) {
        if (r.classIdx < 0) {
            unresolved = true;
            continue;
        }
        registered.insert(r.classIdx);
        const ClassInfo &c = cg.classes[r.classIdx];
        const auto &toks = ctxs[c.file].lexed.tokens;
        std::vector<std::string> missing;
        for (const char *h : kHooks)
            if (!declaresMember(toks, c, h))
                missing.push_back(h);
        if (missing.empty())
            continue;
        std::string list;
        for (const std::string &h : missing)
            list += (list.empty() ? "" : ", ") + h;
        int provider = nearestAncestor(
            cg, r.classIdx, [&](const ClassInfo &a) {
                for (const std::string &h : missing)
                    if (!declaresMember(ctxs[a.file].lexed.tokens, a,
                                        h))
                        return false;
                return true;
            });
        Diagnostic d;
        d.file = ctxs[c.file].path;
        d.line = c.line;
        d.rule = "topo-fallback";
        d.message =
            "registered machine '" + c.name +
            "' does not override accounting hook(s) " + list +
            (provider >= 0
                 ? "; it inherits the costs of '" +
                       cg.classes[provider].name + "'"
                 : "; no base in the run provides them");
        d.hint = "the hooks are the topology's cost model — "
                 "override all three, or justify the inherited "
                 "costs with an allow(topo-fallback) escape";
        out.push_back(std::move(d));
    }

    // (c) Unregistered concrete machines: any concrete topo-layer
    // class rooted in a registered hierarchy that no registration
    // resolves to silently drops out of the conformance sweep.
    // Suppressed when any registration failed to resolve — a
    // registration we cannot tie to a class could be the missing one.
    if (unresolved)
        return;
    std::set<int> pluginRoots;
    for (int c : registered)
        for (int r : hierarchyRoots(cg, c))
            pluginRoots.insert(r);
    for (std::size_t c = 0; c < cg.classes.size(); ++c) {
        const ClassInfo &ci = cg.classes[c];
        if (ci.isAbstract || registered.count(static_cast<int>(c)))
            continue;
        if (ctxs[ci.file].layer != "topo")
            continue;
        bool inPluginHierarchy = false;
        for (int r : hierarchyRoots(cg, static_cast<int>(c)))
            if (r != static_cast<int>(c) && pluginRoots.count(r))
                inPluginHierarchy = true;
        if (!inPluginHierarchy)
            continue;
        Diagnostic d;
        d.file = ctxs[ci.file].path;
        d.line = ci.line;
        d.rule = "topo-contract";
        d.message = "concrete machine '" + ci.name +
                    "' is never registered in the topology registry";
        d.hint = "unregistered machines drop out of the conformance "
                 "sweep and the spec grammar — add a registry entry, "
                 "or make the class abstract";
        out.push_back(std::move(d));
    }
}

} // namespace ot::check
