#include "check/cfg.hh"

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

/** Calls that never return: a statement making one exits the flow. */
bool
isAbortLike(const std::string &t)
{
    return t == "abort" || t == "exit" || t == "_Exit" ||
           t == "quick_exit" || t == "terminate" ||
           t == "__builtin_trap" || t == "__builtin_unreachable";
}

class Parser
{
  public:
    explicit Parser(const LexedFile &lexed) : _t(lexed.tokens) {}

    ParsedFile
    run()
    {
        parseScope("", false);
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

    // -- event / call collection --------------------------------------

    /** Scan tokens in [first, last] for accounting events and call
     *  sites.  Ranges never straddle a lambda body (the statement
     *  parser splits around them). */
    void
    collect(std::size_t first, std::size_t last,
            std::vector<PairEvent> &events,
            std::vector<CallSite> &calls) const
    {
        for (std::size_t j = first; j <= last && j < _t.size(); ++j) {
            if (!ident(j) || !punct(j + 1, "("))
                continue;
            const std::string &name = text(j);
            if (isCallKeyword(name))
                continue;
            const std::string &prev = at(_t, j - 1);
            bool member = j > 0 && (prev == "." || prev == "->");
            bool call = member || freeCallContext(_t, j);

            if (call) {
                for (std::size_t p = 0; p < kNPairs; ++p) {
                    if (name == kPairs[p].begin)
                        events.push_back(
                            {static_cast<int>(p), true, line(j)});
                    else if (name == kPairs[p].end)
                        events.push_back(
                            {static_cast<int>(p), false, line(j)});
                }
                calls.push_back({name, line(j), member});
            } else if (j > 0 && isIdent(_t, j - 1) &&
                       !isBuiltinType(prev) && !isCallKeyword(prev)) {
                // `Type obj(args)` — a constructor invocation of
                // Type; recorded so the call graph sees RAII and
                // helper-object construction.
                calls.push_back({prev, line(j), false});
            }
        }
    }

    // -- statement parsing --------------------------------------------

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

    /** Parse `( ... )` after a control keyword into `s`'s head
     *  events/calls.  No-op when the paren is missing. */
    void
    parseHead(Stmt &s)
    {
        if (!punct(_i, "("))
            return;
        std::size_t open = _i;
        int depth = 0;
        while (!done()) {
            if (punct(_i, "("))
                ++depth;
            else if (punct(_i, ")") && --depth == 0) {
                ++_i;
                break;
            }
            ++_i;
        }
        std::size_t close = _i > 0 ? _i - 1 : 0;
        if (close > open + 1) {
            s.firstTok = open + 1;
            s.lastTok = close - 1;
            collect(open + 1, close - 1, s.events, s.calls);
        }
    }

    Stmt
    parseBlock()
    {
        Stmt s;
        s.kind = Stmt::Kind::Seq;
        s.line = line(_i);
        while (!done() && !punct(_i, "}")) {
            std::size_t before = _i;
            s.children.push_back(parseStmt());
            if (_i == before)
                ++_i; // never stall on unrecognized input
        }
        if (!done())
            ++_i; // consume '}'
        return s;
    }

    Stmt
    parseSwitch()
    {
        Stmt s;
        s.kind = Stmt::Kind::Switch;
        s.line = line(_i);
        ++_i; // 'switch'
        parseHead(s);
        if (!punct(_i, "{")) {
            // `switch (x) case 0: f();` — rare; treat the single
            // statement as one section.
            s.children.push_back(parseStmt());
            return s;
        }
        ++_i;
        Stmt section;
        section.kind = Stmt::Kind::Seq;
        section.line = line(_i);
        bool nextLabeled = false;
        auto flush = [&]() {
            if (!section.children.empty()) {
                s.children.push_back(std::move(section));
                section = Stmt();
                section.kind = Stmt::Kind::Seq;
                section.line = line(_i);
            }
        };
        while (!done() && !punct(_i, "}")) {
            if (text(_i) == "case") {
                flush();
                while (!done() && !punct(_i, ":"))
                    ++_i;
                if (!done())
                    ++_i;
                nextLabeled = true;
                continue;
            }
            if (text(_i) == "default" && punct(_i + 1, ":")) {
                flush();
                s.hasDefault = true;
                _i += 2;
                nextLabeled = true;
                continue;
            }
            std::size_t before = _i;
            Stmt st = parseStmt();
            if (_i == before) {
                ++_i;
                continue;
            }
            st.labeled = st.labeled || nextLabeled;
            nextLabeled = false;
            section.children.push_back(std::move(st));
        }
        if (!section.children.empty())
            s.children.push_back(std::move(section));
        if (!done())
            ++_i; // consume '}'
        return s;
    }

    /** Consume an expression statement up to `;`, splitting around
     *  lambda bodies (parsed as separate anonymous functions). */
    Stmt
    parseExprStmt(Stmt::Kind kind)
    {
        Stmt s;
        s.kind = kind;
        s.line = line(_i);
        s.firstTok = _i;
        std::size_t segStart = _i;
        int paren = 0, brace = 0;
        while (!done()) {
            if (punct(_i, "(")) {
                ++paren;
            } else if (punct(_i, ")")) {
                if (paren > 0)
                    --paren;
            } else if (punct(_i, "{")) {
                if (brace == 0 && isLambdaBrace(_i)) {
                    if (_i > segStart)
                        collect(segStart, _i - 1, s.events, s.calls);
                    ++_i;
                    FuncDef lam;
                    lam.bodyFirst = _i > 0 ? _i - 1 : 0;
                    lam.line = line(_i);
                    lam.body = parseBlock();
                    lam.bodyLast = _i > 0 ? _i - 1 : 0;
                    finalize(std::move(lam));
                    segStart = _i;
                    continue;
                }
                ++brace;
            } else if (punct(_i, "}")) {
                if (brace == 0)
                    break; // enclosing block end; leave it
                --brace;
            } else if (punct(_i, ";") && paren == 0 && brace == 0) {
                break;
            }
            ++_i;
        }
        if (_i > segStart)
            collect(segStart, _i - 1, s.events, s.calls);
        s.lastTok = _i > 0 ? _i - 1 : 0;
        if (punct(_i, ";"))
            ++_i;
        if (s.kind == Stmt::Kind::Simple)
            for (const CallSite &c : s.calls)
                if (!c.member && isAbortLike(c.name))
                    s.kind = Stmt::Kind::Exit;
        return s;
    }

    Stmt
    parseStmt()
    {
        const std::string &t = text(_i);

        if (punct(_i, "{")) {
            ++_i;
            return parseBlock();
        }
        if (punct(_i, ";")) {
            Stmt s;
            s.kind = Stmt::Kind::Simple;
            s.line = line(_i);
            ++_i;
            return s;
        }
        if (t == "if") {
            Stmt s;
            s.kind = Stmt::Kind::If;
            s.line = line(_i);
            ++_i;
            if (text(_i) == "constexpr")
                ++_i;
            parseHead(s);
            s.children.push_back(parseStmt());
            if (text(_i) == "else") {
                ++_i;
                s.hasElse = true;
                s.children.push_back(parseStmt());
            }
            return s;
        }
        if (t == "while" || t == "for") {
            Stmt s;
            s.kind = Stmt::Kind::Loop;
            s.line = line(_i);
            ++_i;
            parseHead(s);
            s.children.push_back(parseStmt());
            return s;
        }
        if (t == "do") {
            Stmt s;
            s.kind = Stmt::Kind::Loop;
            s.isDoWhile = true;
            s.line = line(_i);
            ++_i;
            s.children.push_back(parseStmt());
            if (text(_i) == "while") {
                ++_i;
                parseHead(s);
            }
            if (punct(_i, ";"))
                ++_i;
            return s;
        }
        if (t == "switch")
            return parseSwitch();
        if (t == "return" || t == "co_return") {
            ++_i;
            Stmt s = parseExprStmt(Stmt::Kind::Return);
            return s;
        }
        if (t == "throw" || t == "goto") {
            ++_i;
            return parseExprStmt(Stmt::Kind::Exit);
        }
        if (t == "break") {
            Stmt s;
            s.kind = Stmt::Kind::Break;
            s.line = line(_i);
            ++_i;
            if (punct(_i, ";"))
                ++_i;
            return s;
        }
        if (t == "continue") {
            Stmt s;
            s.kind = Stmt::Kind::Continue;
            s.line = line(_i);
            ++_i;
            if (punct(_i, ";"))
                ++_i;
            return s;
        }
        if (t == "try") {
            Stmt s;
            s.kind = Stmt::Kind::Try;
            s.line = line(_i);
            ++_i;
            if (punct(_i, "{")) {
                ++_i;
                s.children.push_back(parseBlock());
            }
            while (text(_i) == "catch") {
                ++_i;
                Stmt head; // discard handler parameter
                parseHead(head);
                if (punct(_i, "{")) {
                    ++_i;
                    s.children.push_back(parseBlock());
                }
            }
            return s;
        }
        // `label: stmt` — the labeled statement is a jump target and
        // therefore reachable no matter what precedes it.
        if (ident(_i) && punct(_i + 1, ":") && t != "case" &&
            t != "default" && t != "public" && t != "private" &&
            t != "protected") {
            _i += 2;
            Stmt s = parseStmt();
            s.labeled = true;
            return s;
        }
        if (t == "case" || t == "default") {
            // Stray label outside a recognized switch body.
            while (!done() && !punct(_i, ":"))
                ++_i;
            if (!done())
                ++_i;
            Stmt s = parseStmt();
            s.labeled = true;
            return s;
        }
        return parseExprStmt(Stmt::Kind::Simple);
    }

    // -- declaration scope parsing ------------------------------------

    void
    recordDecl(const std::string &name, int ln)
    {
        if (!name.empty())
            _out.decls.push_back({name, ln});
    }

    /** Flatten the per-statement call lists of a body tree. */
    void
    flattenCalls(const Stmt &s, std::vector<CallSite> &out) const
    {
        out.insert(out.end(), s.calls.begin(), s.calls.end());
        for (const Stmt &c : s.children)
            flattenCalls(c, out);
    }

    void
    finalize(FuncDef f)
    {
        flattenCalls(f.body, f.calls);
        _out.funcs.push_back(std::move(f));
    }

    /** Extract the function name left of the parameter-list `(`. */
    void
    extractFuncName(std::size_t firstParen, std::size_t start,
                    std::string &name, std::string &classQual,
                    bool &isDtor) const
    {
        name.clear();
        classQual.clear();
        isDtor = false;
        if (firstParen <= start)
            return;
        std::size_t k = firstParen - 1;
        if (ident(k)) {
            name = text(k);
            if (name == "operator") {
                // `operator()` — the parameter list is the second
                // paren pair; the first is the symbol itself.
                name = "operator()";
            } else if (k > start && text(k - 1) == "operator") {
                name = "operator " + name; // conversion operator
                --k;
            } else if (k > start && punct(k - 1, "~")) {
                isDtor = true;
                name = "~" + name;
                --k;
            }
        } else if (_t[k].kind == Token::Kind::Punct &&
                   text(k) != "::") {
            // operator+ / operator[] / operator() — collect the
            // punctuation run back to the keyword.
            std::string op;
            while (k > start && _t[k].kind == Token::Kind::Punct &&
                   text(k) != "::")
                op = text(k--) + op;
            if (text(k) == "operator")
                name = "operator" + op;
            else
                return;
        } else {
            return;
        }
        // Innermost `Class::` qualifier, for out-of-line members.
        if (k >= start + 2 && text(k - 1) == "::" && ident(k - 2))
            classQual = text(k - 2);
    }

    void
    parseClassLike(const std::string &className)
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
                parseScope(name.empty() ? className : name, true);
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
    parseDeclOrFunc(const std::string &className)
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
                std::string classQual;
                bool isDtor = false;
                extractFuncName(firstParen, start, name, classQual,
                                isDtor);
            } else if (!className.empty()) {
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
            if (className.empty())
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
        bool isDtor = false;
        std::string classQual;
        extractFuncName(firstParen, start, f.name, classQual, isDtor);
        f.className = classQual.empty() ? className : classQual;
        f.isDtor = isDtor;
        f.isCtor = !f.className.empty() && f.name == f.className;
        f.isVirtual = sawVirtual;
        f.line = line(firstParen);
        f.bodyFirst = j;
        _i = j + 1;
        f.body = parseBlock();
        f.bodyLast = _i > 0 ? _i - 1 : 0;
        if (!f.name.empty())
            recordDecl(f.name, f.line);
        finalize(std::move(f));
    }

    void
    parseScope(const std::string &className, bool untilBrace)
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
                    parseScope("", true);
                } else {
                    skipToSemicolon(); // namespace alias
                }
                continue;
            }
            if (t == "extern" && punct(_i + 1, "{")) {
                _i += 2; // extern "C" { — the literal is stripped
                parseScope(className, true);
                continue;
            }
            if (t == "class" || t == "struct" || t == "union") {
                // `struct Foo x;` / `class Foo *p` declarators are
                // rare at audited scopes; treat every head as a
                // definition or forward declaration.
                parseClassLike(className);
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
            parseDeclOrFunc(className);
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
