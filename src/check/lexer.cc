#include "check/lexer.hh"

#include <cctype>

namespace ot::check {

namespace {

bool
identStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identCont(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Cursor over the raw source with line tracking. */
class Cursor
{
  public:
    explicit Cursor(const std::string &s) : _s(s) {}

    bool done() const { return _i >= _s.size(); }
    char peek(std::size_t ahead = 0) const
    {
        return _i + ahead < _s.size() ? _s[_i + ahead] : '\0';
    }
    int line() const { return _line; }

    char
    take()
    {
        char c = _s[_i++];
        if (c == '\n')
            ++_line;
        return c;
    }

    bool
    startsWith(const char *lit) const
    {
        for (std::size_t k = 0; lit[k]; ++k)
            if (peek(k) != lit[k])
                return false;
        return true;
    }

  private:
    const std::string &_s;
    std::size_t _i = 0;
    int _line = 1;
};

/** Trim ASCII whitespace from both ends. */
std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/**
 * Pull otcheck markers out of one comment's text.  `line` is the line
 * the comment starts on; marker lines are offset by the newlines seen
 * before the marker inside a block comment.
 */
void
scanCommentMarkers(const std::string &text, int line, LexedFile &out)
{
    static const std::string kTag = "otcheck:";
    int extraLines = 0;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\n') {
            ++extraLines;
            continue;
        }
        if (text.compare(i, kTag.size(), kTag) != 0)
            continue;
        std::size_t j = i + kTag.size();
        int markerLine = line + extraLines;
        if (text.compare(j, 7, "hotpath") == 0) {
            out.hotpath = true;
        } else if (text.compare(j, 13, "fixture-path ") == 0) {
            std::size_t e = text.find_first_of("\n", j + 13);
            out.fixturePath = trim(text.substr(j + 13, e - (j + 13)));
        } else if (text.compare(j, 6, "allow(") == 0) {
            Allow a;
            a.line = markerLine;
            std::size_t close = text.find(')', j + 6);
            if (close == std::string::npos) {
                // Malformed marker: record with empty rule so the
                // checker reports it rather than silently ignoring.
                out.allows.push_back(a);
                continue;
            }
            a.rule = trim(text.substr(j + 6, close - (j + 6)));
            // The justification must follow the canonical form
            // `allow(rule): text`; without the colon the marker has
            // no justification and does not suppress.
            std::size_t k = close + 1;
            if (k < text.size() && text[k] == ':') {
                std::size_t e = text.find('\n', k + 1);
                a.justification = trim(text.substr(k + 1, e - (k + 1)));
            }
            out.allows.push_back(a);
        }
    }
}

} // namespace

LexedFile
lex(const std::string &source)
{
    LexedFile out;
    Cursor c(source);
    bool lineHasToken = false; // false until a token on this line

    auto push = [&](Token::Kind kind, std::string text, int line) {
        Token t;
        t.kind = kind;
        t.text = std::move(text);
        t.line = line;
        out.tokens.push_back(std::move(t));
        lineHasToken = true;
    };

    while (!c.done()) {
        char ch = c.peek();

        if (ch == '\n') {
            lineHasToken = false;
            c.take();
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(ch))) {
            c.take();
            continue;
        }

        // Line comment.  A backslash immediately before the newline
        // splices the next line into the comment (translation phase
        // 2), so code on the continued line is comment text to the
        // compiler and must be comment text here too.
        if (c.startsWith("//")) {
            int line = c.line();
            std::string text;
            while (!c.done()) {
                if (c.peek() == '\\' &&
                    (c.peek(1) == '\n' ||
                     (c.peek(1) == '\r' && c.peek(2) == '\n'))) {
                    c.take(); // backslash
                    if (c.peek() == '\r')
                        c.take();
                    c.take(); // newline (keeps marker lines aligned)
                    text += '\n';
                    continue;
                }
                if (c.peek() == '\n')
                    break;
                text += c.take();
            }
            scanCommentMarkers(text, line, out);
            continue;
        }

        // Block comment.
        if (c.startsWith("/*")) {
            int line = c.line();
            std::string text;
            c.take();
            c.take();
            while (!c.done() && !c.startsWith("*/"))
                text += c.take();
            if (!c.done()) {
                c.take();
                c.take();
            }
            scanCommentMarkers(text, line, out);
            continue;
        }

        // Preprocessor directive: only when `#` is the first
        // non-whitespace character on the line.  Consumed whole
        // (honouring `\` continuations); `#include` targets are kept.
        if (ch == '#' && !lineHasToken) {
            int line = c.line();
            std::string text;
            while (!c.done()) {
                if (c.peek() == '\\' && c.peek(1) == '\n') {
                    c.take();
                    c.take();
                    text += ' ';
                    continue;
                }
                if (c.peek() == '\n')
                    break;
                text += c.take();
            }
            std::string body = trim(text.substr(1));
            if (body.compare(0, 7, "include") == 0) {
                std::string rest = trim(body.substr(7));
                if (!rest.empty() && (rest[0] == '"' || rest[0] == '<')) {
                    char open = rest[0];
                    char closeCh = open == '"' ? '"' : '>';
                    std::size_t e = rest.find(closeCh, 1);
                    if (e != std::string::npos) {
                        Include inc;
                        inc.path = rest.substr(1, e - 1);
                        inc.line = line;
                        inc.angled = open == '<';
                        out.includes.push_back(std::move(inc));
                    }
                }
            } else {
                // Identifiers in any other directive (`#define A B`,
                // `#if FOO`, `#ifdef BAR`) count as uses for the
                // include-hygiene rule; a `#define` additionally
                // exports its name.
                std::size_t k = 0;
                while (k < body.size() &&
                       !std::isspace(
                           static_cast<unsigned char>(body[k])))
                    ++k; // skip the directive keyword
                bool isDefine = body.compare(0, 6, "define") == 0;
                bool defineNamed = false;
                while (k < body.size()) {
                    if (!identStart(body[k])) {
                        ++k;
                        continue;
                    }
                    std::size_t b = k;
                    while (k < body.size() && identCont(body[k]))
                        ++k;
                    std::string name = body.substr(b, k - b);
                    if (isDefine && !defineNamed) {
                        defineNamed = true;
                        Define def;
                        def.name = name;
                        def.line = line;
                        out.defines.push_back(std::move(def));
                    } else {
                        out.ppIdents.push_back(std::move(name));
                    }
                }
            }
            continue;
        }

        // Raw string literal: (u8|u|U|L)? R"delim( ... )delim".  The
        // delimiter is validated before anything is consumed: at most
        // 16 d-chars (no space, quote, backslash, paren or newline)
        // then '('.  Anything else is not a raw string — the prefix
        // falls through to the identifier path and the quote to the
        // ordinary string path, so a malformed literal cannot swallow
        // the rest of the file.
        if (ch == 'R' || ch == 'u' || ch == 'U' || ch == 'L') {
            std::size_t p = 0;
            if (c.startsWith("u8"))
                p = 2;
            else if (ch == 'u' || ch == 'U' || ch == 'L')
                p = 1;
            if (c.peek(p) == 'R' && c.peek(p + 1) == '"') {
                std::size_t delimLen = 0;
                bool valid = false;
                while (delimLen <= 16) {
                    char d = c.peek(p + 2 + delimLen);
                    if (d == '(') {
                        valid = true;
                        break;
                    }
                    if (d == '\0' || d == '"' || d == ')' ||
                        d == '\\' || d == '\n' || d == ' ' ||
                        delimLen == 16)
                        break;
                    ++delimLen;
                }
                if (valid) {
                    for (std::size_t k = 0; k < p + 2; ++k)
                        c.take();
                    std::string delim;
                    for (std::size_t k = 0; k < delimLen; ++k)
                        delim += c.take();
                    c.take(); // '('
                    std::string closer = ")" + delim + "\"";
                    while (!c.done() && !c.startsWith(closer.c_str()))
                        c.take();
                    for (std::size_t k = 0;
                         k < closer.size() && !c.done(); ++k)
                        c.take();
                    lineHasToken = true;
                    continue;
                }
            }
        }

        // String / char literal (with escapes); contents never enter
        // the token stream.
        if (ch == '"' || ch == '\'') {
            char quote = c.take();
            while (!c.done() && c.peek() != quote) {
                if (c.take() == '\\' && !c.done())
                    c.take();
            }
            if (!c.done())
                c.take();
            lineHasToken = true;
            continue;
        }

        // Identifier / keyword.
        if (identStart(ch)) {
            int line = c.line();
            std::string text;
            while (!c.done() && identCont(c.peek()))
                text += c.take();
            push(Token::Kind::Ident, std::move(text), line);
            continue;
        }

        // Number (digits, digit separators and the usual
        // suffix/exponent characters; the rules never look inside
        // numbers, so lumping is fine).  The `1'000` separator must
        // be consumed here or the `'` would start a bogus char
        // literal and swallow real code.
        if (std::isdigit(static_cast<unsigned char>(ch))) {
            int line = c.line();
            std::string text;
            while (!c.done() &&
                   (identCont(c.peek()) || c.peek() == '.' ||
                    (c.peek() == '\'' && identCont(c.peek(1))) ||
                    ((c.peek() == '+' || c.peek() == '-') &&
                     (text.back() == 'e' || text.back() == 'E' ||
                      text.back() == 'p' || text.back() == 'P'))))
                text += c.take();
            push(Token::Kind::Number, std::move(text), line);
            continue;
        }

        // Punctuation; `::` and `->` kept whole for the rules.
        {
            int line = c.line();
            if (c.startsWith("::")) {
                c.take();
                c.take();
                push(Token::Kind::Punct, "::", line);
            } else if (c.startsWith("->")) {
                c.take();
                c.take();
                push(Token::Kind::Punct, "->", line);
            } else {
                push(Token::Kind::Punct, std::string(1, c.take()), line);
            }
        }
    }
    return out;
}

} // namespace ot::check
