/**
 * @file
 * C++ token scanner for otcheck.
 *
 * otcheck's rules work on a token stream, not an AST: the invariants
 * they enforce (banned identifiers, include edges, call pairing) are
 * all visible at the lexical level, and a lexer has no build-flag or
 * header-resolution dependencies, so the checker runs in milliseconds
 * over the whole tree and never disagrees with the compiler about
 * what a translation unit is.
 *
 * The scanner strips comments, string/char literals (including raw
 * strings) and preprocessor directives from the token stream, so a
 * banned name inside a string or a macro definition is never a false
 * positive.  Three pieces of comment/preprocessor content *are*
 * retained, because the rules need them:
 *
 *   - `#include` targets, for the layering rule;
 *   - allow(rule): justification escape hatches;
 *   - hotpath and fixture-path file markers.
 *
 * (Markers are spelled with an `otcheck:` prefix; this comment avoids
 * writing them out so the checker does not read its own docs as
 * markers.  The exact syntax is in README.md and `otcheck --help`.)
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ot::check {

/** One lexical token (comments/literals/preprocessor stripped). */
struct Token
{
    enum class Kind {
        Ident,  ///< identifier or keyword
        Number, ///< numeric literal
        Punct,  ///< punctuation; `::` and `->` are single tokens
    };

    Kind kind = Kind::Punct;
    std::string text;
    int line = 1;
};

/** One `#include` directive. */
struct Include
{
    std::string path; ///< text between the delimiters
    int line = 1;
    bool angled = false; ///< `<...>` rather than `"..."`
};

/** One allow(rule): justification escape-hatch marker. */
struct Allow
{
    std::string rule;          ///< rule id inside the parentheses
    std::string justification; ///< text after the closing `):`
    int line = 1;              ///< line the marker text sits on
};

/** One `#define` directive (object- or function-like). */
struct Define
{
    std::string name;
    int line = 1;
};

/** A file reduced to what the rules consume. */
struct LexedFile
{
    std::vector<Token> tokens;
    std::vector<Include> includes;
    std::vector<Allow> allows;
    std::vector<Define> defines;
    /** Identifiers appearing inside preprocessor directive bodies
     *  (`#if FOO`, `#define A B`); the include-hygiene rule counts
     *  them as uses even though directives produce no tokens. */
    std::vector<std::string> ppIdents;
    bool hotpath = false;    ///< file carries the hotpath marker
    std::string fixturePath; ///< fixture-path override, or empty
};

/** Scan one source file.  Never fails: unterminated constructs are
 *  consumed to end-of-file, which at worst hides tokens the compiler
 *  would also reject. */
LexedFile lex(const std::string &source);

} // namespace ot::check
