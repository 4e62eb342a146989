/**
 * @file
 * The algorithm vocabulary shared by every topology.
 *
 * The paper's comparison tables race a fixed set of problems across
 * machine families; the topo layer pins that set down as an enum so
 * the workload engine, the scenario mixes and the conformance suite
 * all agree on what "every registered algorithm" means.  The spellings
 * here ("sort", "cc", ...) are the CLI/JSON tokens of the workload
 * spec grammar.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "vlsi/delay.hh"

namespace ot::topo {

/** The algorithms a topology must serve (the Tables I-III rows). */
enum class Algo : std::uint8_t {
    Sort,                ///< sorting N keys
    MatMul,              ///< integer matrix product
    BoolMatMul,          ///< Boolean matrix product (Table II)
    ConnectedComponents, ///< CONNECT (Table III)
    Mst,                 ///< minimum spanning tree (Table III)
    ShortestPaths,       ///< single-source shortest paths
};

inline constexpr std::size_t kAlgoCount = 6;

/** Every algorithm, in enum order (for "every algo x every topo"). */
constexpr std::array<Algo, kAlgoCount>
allAlgos()
{
    return {Algo::Sort,
            Algo::MatMul,
            Algo::BoolMatMul,
            Algo::ConnectedComponents,
            Algo::Mst,
            Algo::ShortestPaths};
}

/** Short spelling used by the CLI/JSON forms ("sort", "cc", ...);
 *  a static string, so a tracer may keep the pointer as a span name. */
const char *toString(Algo algo);

/** Parse the short spelling; false on an unknown name. */
bool algoFromString(const std::string &s, Algo &out);

/** Short delay-model spelling: "log", "const" or "linear". */
std::string shortName(vlsi::DelayModel model);

/** Parse the short delay-model spelling; false on an unknown name. */
bool modelFromShortName(const std::string &s, vlsi::DelayModel &out);

} // namespace ot::topo
