#include "check/cfg.hh"

#include <algorithm>
#include <set>

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

/** Keywords that look like calls (`if (`, `sizeof (`) but are not. */
bool
isCallKeyword(const std::string &t)
{
    static const std::set<std::string> kw = {
        "if",       "for",        "while",         "switch",
        "return",   "co_return",  "co_await",      "co_yield",
        "sizeof",   "alignof",    "decltype",      "typeid",
        "catch",    "throw",      "static_assert", "alignas",
        "noexcept", "delete",     "new",           "asm",
        "requires", "__builtin_expect",
    };
    return kw.count(t) != 0;
}

/** Builtin type names that precede a variable in `Type var(args)`. */
bool
isBuiltinType(const std::string &t)
{
    static const std::set<std::string> ty = {
        "void",   "bool",   "char",    "short",    "int",
        "long",   "float",  "double",  "auto",     "unsigned",
        "signed", "size_t", "wchar_t", "char8_t",  "char16_t",
        "char32_t",
    };
    return ty.count(t) != 0;
}

class Parser
{
  public:
    explicit Parser(const LexedFile &lexed) : _t(lexed.tokens) {}

    ParsedFile
    run()
    {
        parseScope(false, false);
        return std::move(_out);
    }

  private:
    const std::vector<Token> &_t;
    std::size_t _i = 0;
    ParsedFile _out;

    // -- token helpers ------------------------------------------------

    std::size_t size() const { return _t.size(); }
    bool done() const { return _i >= _t.size(); }
    const std::string &text(std::size_t i) const { return at(_t, i); }
    bool ident(std::size_t i) const { return isIdent(_t, i); }

    bool
    punct(std::size_t i, const char *s) const
    {
        return i < _t.size() && _t[i].kind == Token::Kind::Punct &&
               _t[i].text == s;
    }

    int
    line(std::size_t i) const
    {
        return i < _t.size() ? _t[i].line
               : _t.empty()  ? 1
                             : _t.back().line;
    }

    /** Index of the `}` matching the `{` at `open` (or last token). */
    std::size_t
    matchBrace(std::size_t open) const
    {
        int depth = 0;
        for (std::size_t j = open; j < _t.size(); ++j) {
            if (punct(j, "{"))
                ++depth;
            else if (punct(j, "}") && --depth == 0)
                return j;
        }
        return _t.empty() ? 0 : _t.size() - 1;
    }

    /** Index of the `(` matching the `)` at `close` (or npos). */
    std::size_t
    backMatchParen(std::size_t close) const
    {
        int depth = 0;
        for (std::size_t j = close + 1; j-- > 0;) {
            if (punct(j, ")"))
                ++depth;
            else if (punct(j, "(") && --depth == 0)
                return j;
        }
        return std::string::npos;
    }

    void
    skipToSemicolon()
    {
        int brace = 0;
        while (!done()) {
            if (punct(_i, "{"))
                ++brace;
            else if (punct(_i, "}")) {
                if (brace == 0)
                    return; // enclosing scope end; leave it
                --brace;
            } else if (punct(_i, ";") && brace == 0) {
                ++_i;
                return;
            }
            ++_i;
        }
    }

    /** Skip a balanced `<...>` block starting at `<`. */
    void
    skipAngles()
    {
        int depth = 0;
        while (!done()) {
            if (punct(_i, "<"))
                ++depth;
            else if (punct(_i, ">")) {
                if (--depth == 0) {
                    ++_i;
                    return;
                }
            } else if (punct(_i, ";") || punct(_i, "{")) {
                return; // not a template argument list after all
            }
            ++_i;
        }
    }

    // -- function bodies ----------------------------------------------

    /** Record the call at `j`, if any.  `Type obj(args)` counts as a
     *  call of Type's constructor, so the call graph sees RAII and
     *  helper-object construction. */
    void
    collectCall(std::size_t j, std::vector<CallSite> &calls) const
    {
        if (!ident(j) || !punct(j + 1, "("))
            return;
        const std::string &name = text(j);
        if (isCallKeyword(name))
            return;
        const std::string &prev = at(_t, j - 1);
        if (prev == "." || prev == "->" || freeCallContext(_t, j))
            calls.push_back({name, line(j)});
        else if (j > 0 && isIdent(_t, j - 1) && !isBuiltinType(prev) &&
                 !isCallKeyword(prev))
            calls.push_back({prev, line(j)});
    }

    /** Is the `{` at `j` a lambda body?  True when the declarator
     *  before it ends in `]` or in `](params) <specifiers>`. */
    bool
    isLambdaBrace(std::size_t j) const
    {
        std::size_t steps = 0;
        for (std::size_t k = j; k-- > 0 && steps < 24; ++steps) {
            const std::string &t = text(k);
            if (t == "]")
                return true;
            if (t == ")") {
                std::size_t open = backMatchParen(k);
                return open != std::string::npos && open > 0 &&
                       punct(open - 1, "]");
            }
            bool specifier =
                isIdent(_t, k) || t == "::" || t == "->" || t == "<" ||
                t == ">" || t == "*" || t == "&" || t == "," ||
                _t[k].kind == Token::Kind::Number;
            if (!specifier)
                return false;
        }
        return false;
    }

    /** Scan the body whose `{` is at `open` into `f`: its calls, with
     *  each lambda body split out as an anonymous function (recorded
     *  before its encloser).  Returns the index of the closing `}`
     *  (size() when the file ends first). */
    std::size_t
    scanBody(FuncDef f, std::size_t open)
    {
        f.bodyFirst = open;
        int depth = 0;
        std::size_t j = open + 1;
        for (; j < size(); ++j) {
            if (punct(j, "{")) {
                if (isLambdaBrace(j)) {
                    FuncDef lam;
                    lam.line = line(j + 1);
                    j = scanBody(std::move(lam), j);
                } else {
                    ++depth;
                }
            } else if (punct(j, "}")) {
                if (depth-- == 0)
                    break;
            } else {
                collectCall(j, f.calls);
            }
        }
        f.bodyLast = std::min(j, size() - 1);
        _out.funcs.push_back(std::move(f));
        return j;
    }

    // -- declaration scope parsing ------------------------------------

    void
    recordDecl(const std::string &name, int ln)
    {
        if (!name.empty())
            _out.decls.push_back({name, ln});
    }

    /** The function name left of the parameter-list `(` ("" when
     *  none is recognizable). */
    std::string
    extractFuncName(std::size_t firstParen, std::size_t start) const
    {
        if (firstParen <= start)
            return "";
        std::size_t k = firstParen - 1;
        if (ident(k)) {
            const std::string &name = text(k);
            if (name == "operator") {
                // `operator()` — the parameter list is the second
                // paren pair; the first is the symbol itself.
                return "operator()";
            }
            if (k > start && text(k - 1) == "operator")
                return "operator " + name; // conversion operator
            if (k > start && punct(k - 1, "~"))
                return "~" + name;
            return name;
        }
        if (_t[k].kind == Token::Kind::Punct && text(k) != "::") {
            // operator+ / operator[] / operator() — collect the
            // punctuation run back to the keyword.
            std::string op;
            while (k > start && _t[k].kind == Token::Kind::Punct &&
                   text(k) != "::")
                op = text(k--) + op;
            if (text(k) == "operator")
                return "operator" + op;
        }
        return "";
    }

    void
    parseClassLike(bool inClass)
    {
        ++_i; // class/struct/union
        while (punct(_i, "[")) { // attributes
            int depth = 0;
            while (!done()) {
                if (punct(_i, "["))
                    ++depth;
                else if (punct(_i, "]") && --depth == 0) {
                    ++_i;
                    break;
                }
                ++_i;
            }
        }
        std::string name;
        if (ident(_i) && text(_i) != "final") {
            name = text(_i);
            recordDecl(name, line(_i));
            ++_i;
        }
        // Base clause / fwd decl: scan for `{` or `;` at top level.
        int angle = 0;
        while (!done()) {
            if (punct(_i, "<"))
                ++angle;
            else if (punct(_i, ">") && angle > 0)
                --angle;
            else if (punct(_i, ";")) {
                ++_i;
                return; // forward declaration
            } else if (punct(_i, "{") && angle == 0) {
                ++_i;
                parseScope(inClass || !name.empty(), true);
                skipToSemicolon(); // trailing declarators
                return;
            } else if (punct(_i, "}")) {
                return; // malformed; leave scope end for the caller
            }
            ++_i;
        }
    }

    void
    parseEnum()
    {
        ++_i; // 'enum'
        if (text(_i) == "class" || text(_i) == "struct")
            ++_i;
        if (ident(_i)) {
            recordDecl(text(_i), line(_i));
            ++_i;
        }
        while (!done() && !punct(_i, "{") && !punct(_i, ";") &&
               !punct(_i, "}"))
            ++_i; // underlying type
        if (!punct(_i, "{")) {
            if (punct(_i, ";"))
                ++_i;
            return;
        }
        ++_i;
        bool expectName = true;
        int depth = 0;
        while (!done() && !(punct(_i, "}") && depth == 0)) {
            if (punct(_i, "{") || punct(_i, "(")) {
                ++depth;
            } else if (punct(_i, ")")) {
                if (depth > 0)
                    --depth;
            } else if (punct(_i, ",") && depth == 0) {
                expectName = true;
            } else if (expectName && ident(_i) && depth == 0) {
                recordDecl(text(_i), line(_i));
                expectName = false;
            }
            ++_i;
        }
        if (!done())
            ++_i; // '}'
        skipToSemicolon();
    }

    void
    parseDeclOrFunc(bool inClass)
    {
        std::size_t start = _i;
        std::size_t firstParen = std::string::npos;
        std::size_t eqPos = std::string::npos;
        bool sawVirtual = false;
        int paren = 0, angle = 0;
        std::size_t j = _i;

        while (j < size()) {
            const std::string &t = text(j);
            if (t == "virtual") {
                sawVirtual = true;
            } else if (t == "operator" && ident(j)) {
                // Skip the operator symbol so `operator<<` is not
                // mistaken for template-angle opens (which would
                // hide the function body from the scan).
                ++j;
                while (j < size() &&
                       _t[j].kind == Token::Kind::Punct &&
                       !punct(j, "(") && !punct(j, ";") &&
                       !punct(j, "{"))
                    ++j;
                continue;
            } else if (punct(j, "(")) {
                if (paren == 0 && angle == 0 &&
                    firstParen == std::string::npos &&
                    eqPos == std::string::npos)
                    firstParen = j;
                ++paren;
            } else if (punct(j, ")")) {
                if (paren > 0)
                    --paren;
            } else if (punct(j, "<") && paren == 0) {
                ++angle;
            } else if (punct(j, ">") && paren == 0) {
                if (angle > 0)
                    --angle;
            } else if (punct(j, "=") && paren == 0 && angle == 0) {
                if (eqPos == std::string::npos)
                    eqPos = j;
            } else if (punct(j, "{") && paren == 0 && angle == 0) {
                if (eqPos != std::string::npos) {
                    // Braced initializer inside `x = {...}`.
                    j = matchBrace(j);
                } else {
                    break; // candidate body or braced init
                }
            } else if (punct(j, ";") && paren == 0) {
                break;
            } else if (punct(j, "}") && paren == 0) {
                break; // enclosing scope end
            }
            ++j;
        }
        if (j >= size()) {
            _i = size();
            return;
        }
        if (punct(j, "}")) {
            _i = j;
            return;
        }
        if (punct(j, ";")) {
            // Pure declaration: name it for the symbol graph.
            std::string name;
            bool fnDecl = firstParen != std::string::npos &&
                          (eqPos == std::string::npos ||
                           eqPos > firstParen);
            if (fnDecl) {
                name = extractFuncName(firstParen, start);
            } else if (inClass) {
                // Data members are accessed through an object, never
                // by bare name from another file; exporting them
                // would only pollute the symbol graph (`pair`, `x`).
                name.clear();
            } else {
                std::size_t limit =
                    eqPos == std::string::npos ? j : eqPos;
                for (std::size_t k = limit; k-- > start;) {
                    if (punct(k, "]")) {
                        int depth = 0;
                        while (k > start) {
                            if (punct(k, "]"))
                                ++depth;
                            else if (punct(k, "[") && --depth == 0)
                                break;
                            --k;
                        }
                        continue;
                    }
                    if (ident(k) && !isCallKeyword(text(k))) {
                        name = text(k);
                        break;
                    }
                }
            }
            if (!name.empty() && name != "operator")
                recordDecl(name, line(start));
            _i = j + 1;
            return;
        }

        // `{` at top level without `=`: function body, or a braced
        // variable initializer (`int x{1};`) when no parameter list
        // was seen.
        if (firstParen == std::string::npos) {
            std::size_t close = matchBrace(j);
            if (!inClass)
                for (std::size_t k = j; k-- > start;)
                    if (ident(k) && !isCallKeyword(text(k))) {
                        recordDecl(text(k), line(start));
                        break;
                    }
            _i = close < size() ? close + 1 : size();
            skipToSemicolon();
            return;
        }

        FuncDef f;
        f.name = extractFuncName(firstParen, start);
        f.isVirtual = sawVirtual;
        f.line = line(firstParen);
        recordDecl(f.name, f.line);
        _i = std::min(scanBody(std::move(f), j) + 1, size());
    }

    void
    parseScope(bool inClass, bool untilBrace)
    {
        while (!done()) {
            const std::string &t = text(_i);
            if (punct(_i, "}")) {
                ++_i;
                if (untilBrace)
                    return;
                continue;
            }
            if (punct(_i, ";")) {
                ++_i;
                continue;
            }
            if (t == "namespace") {
                ++_i;
                while (ident(_i) || punct(_i, "::"))
                    ++_i;
                if (punct(_i, "{")) {
                    ++_i;
                    parseScope(false, true);
                } else {
                    skipToSemicolon(); // namespace alias
                }
                continue;
            }
            if (t == "extern" && punct(_i + 1, "{")) {
                _i += 2; // extern "C" { — the literal is stripped
                parseScope(inClass, true);
                continue;
            }
            if (t == "class" || t == "struct" || t == "union") {
                // `struct Foo x;` / `class Foo *p` declarators are
                // rare at audited scopes; treat every head as a
                // definition or forward declaration.
                parseClassLike(inClass);
                continue;
            }
            if (t == "enum") {
                parseEnum();
                continue;
            }
            if (t == "using") {
                ++_i;
                if (text(_i) == "namespace") {
                    skipToSemicolon();
                    continue;
                }
                if (ident(_i) && punct(_i + 1, "=")) {
                    recordDecl(text(_i), line(_i)); // alias
                    skipToSemicolon();
                    continue;
                }
                // `using ns::name;` imports (re-exports) the name.
                std::string last;
                int ln = line(_i);
                while (!done() && !punct(_i, ";") &&
                       !punct(_i, "}")) {
                    if (ident(_i))
                        last = text(_i);
                    ++_i;
                }
                if (punct(_i, ";"))
                    ++_i;
                recordDecl(last, ln);
                continue;
            }
            if (t == "typedef") {
                std::size_t b = _i;
                skipToSemicolon();
                std::size_t e = _i > 0 ? _i - 1 : 0;
                for (std::size_t k = e; k-- > b;) {
                    if (punct(k, "]"))
                        continue;
                    if (punct(k, "[")) {
                        continue;
                    }
                    if (ident(k)) {
                        recordDecl(text(k), line(b));
                        break;
                    }
                    break;
                }
                continue;
            }
            if (t == "template") {
                ++_i;
                if (punct(_i, "<"))
                    skipAngles();
                continue;
            }
            if (t == "static_assert") {
                skipToSemicolon();
                continue;
            }
            if (t == "friend") {
                ++_i;
                continue;
            }
            if ((t == "public" || t == "private" ||
                 t == "protected") &&
                punct(_i + 1, ":")) {
                _i += 2;
                continue;
            }
            std::size_t before = _i;
            parseDeclOrFunc(inClass);
            if (_i == before)
                ++_i; // never stall
        }
    }
};

} // namespace

bool
freeCallContext(const std::vector<Token> &toks, std::size_t i)
{
    if (i == 0)
        return true;
    const std::string &prev = at(toks, i - 1);
    if (prev == "." || prev == "->")
        return false; // member call
    if (prev == "::") {
        // std::rand( / ::rand( are the banned spellings;
        // SomeClass::time( is someone's own static.
        if (i < 2)
            return true;
        const std::string &q = at(toks, i - 2);
        return q == "std" || !isIdent(toks, i - 2);
    }
    if (isIdent(toks, i - 1))
        return prev == "return" || prev == "co_return" ||
               prev == "co_await" || prev == "case";
    return true; // after `;`, `{`, `(`, `,`, `=`, operators, ...
}

ParsedFile
parseFile(const LexedFile &lexed)
{
    return Parser(lexed).run();
}

} // namespace ot::check
