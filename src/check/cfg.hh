/**
 * @file
 * Definition and call-site scanner for otcheck: token stream →
 * function definitions with their call sites, plus declared names.
 *
 * The lexical rules (banned names, include edges) stay on the flat
 * token stream; the project rules need a little structure:
 *
 *   - hotpath propagation and determinism taint need each function
 *     definition, its body's token range and the calls it makes;
 *   - the symbol graph (include hygiene) needs the names a file
 *     declares.
 *
 * The scanner is a recognizer, not a compiler front end: it never
 * rejects input, and constructs it cannot classify are skipped, which
 * keeps every downstream rule conservative (no diagnostics from
 * unparsed code) rather than wrong.  Lambdas are split out as
 * anonymous functions — their bodies run at call time, not where they
 * are written, so their calls are not the enclosing function's.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "check/lexer.hh"

namespace ot::check {

/** One call site: `name(` in call (not declaration) position. */
struct CallSite
{
    std::string name;
    int line = 1;
};

/** One function (or lambda) definition. */
struct FuncDef
{
    std::string name; ///< bare name, "~X" for dtors, "" = lambda
    bool isVirtual = false;
    int line = 1;
    std::size_t bodyFirst = 0; ///< token index of the opening brace
    std::size_t bodyLast = 0;  ///< token index of the closing brace
    std::vector<CallSite> calls; ///< in source order, lambdas excluded
};

/** One declared name (feeds the symbol graph). */
struct DeclName
{
    std::string name;
    int line = 1;
};

/** Scan result for one file. */
struct ParsedFile
{
    std::vector<FuncDef> funcs;  ///< includes lambdas (name == "")
    std::vector<DeclName> decls; ///< namespace/class-scope names
};

/**
 * Is the identifier at `i` (known to be followed by `(`) a *call* in
 * free/static position?  Member calls (`x.time()`) are someone else's
 * method; declarations (`int time(...)`) are not calls.
 */
bool freeCallContext(const std::vector<Token> &toks, std::size_t i);

/** Scan one lexed file.  Never fails; unrecognized constructs are
 *  skipped. */
ParsedFile parseFile(const LexedFile &lexed);

} // namespace ot::check
