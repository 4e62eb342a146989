/**
 * @file
 * Class-contract analysis for otcheck: the class graph and the
 * topology plugin contracts.
 *
 * The fifth analysis stage.  The lexer (stage 1) records structural
 * markers, the parser (stage 2) splits out function bodies, the
 * symbol/call graphs (stage 3) and the dataflow summaries (stage 4)
 * resolve names and mutations; this stage adds the *class* dimension:
 * which classes exist, how they inherit, and which are abstract.
 *
 * Two rule families live here:
 *
 *   topo-contract — registration hygiene for the topology plugin
 *                 registry: registry names must be unique, and every
 *                 concrete machine in the plugin hierarchy must be
 *                 registered (an unregistered machine silently drops
 *                 out of the cross-topology conformance sweep).
 *   topo-fallback — a registered machine must override the three
 *                 per-primitive accounting hooks (exchangeStepCost,
 *                 broadcastCost, reduceCost): the hooks ARE the
 *                 topology's microarchitecture description, and a
 *                 machine that inherits another machine's costs is
 *                 describing the wrong network unless the fallback is
 *                 deliberate and justified with an allow escape.
 */

#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "check/rules.hh"

namespace ot::check {

/** One class/struct definition found in the run. */
struct ClassInfo
{
    std::string name;
    int file = -1; ///< ctx index of the defining file
    int line = 1;
    std::size_t bodyFirst = 0; ///< token index of the class `{`
    std::size_t bodyLast = 0;  ///< matching `}`
    /** Base-class names (unqualified), in declaration order. */
    std::vector<std::string> bases;
    /** Body contains a pure-virtual (`= 0`) declaration. */
    bool isAbstract = false;
};

/** The run's class graph. */
struct ClassGraph
{
    std::vector<ClassInfo> classes;
    /** Name → index into classes (first definition wins). */
    std::map<std::string, int> byName;
};

/** Build the class graph over the run's src-layer files: class
 *  definitions, bases and abstractness. */
ClassGraph buildClassGraph(const std::vector<FileContext> &ctxs);

/** Topology plugin contract rules (topo-contract, topo-fallback)
 *  over the whole run.  Raw: allow() markers are NOT applied. */
void runTopoContracts(const std::vector<FileContext> &ctxs,
                      const ClassGraph &cg,
                      std::vector<Diagnostic> &out);

} // namespace ot::check
