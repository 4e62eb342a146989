/**
 * @file
 * In-process analysis of a Tracer's event stream.
 *
 * Computes the breakdowns the paper's tables are made of — per-phase
 * and per-tree model time, per-primitive counts, root bandwidth — plus
 * the critical phase chain: the chronological sequence of innermost
 * phases that tiles the whole timeline.  Because the machine clock is
 * a single line (pardo parallelism is already folded into each charge
 * by the max-of-chains rule), that chain *is* the critical path; its
 * heaviest links are where an optimization must land to move total
 * model time.
 *
 * The per-phase totals come from the Charge events, so they sum
 * exactly to TimeAccountant::now() and match phaseTimes() — the span
 * stream is a view, the charge stream is the accounting of record.
 */

#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "trace/tracer.hh"

namespace ot::trace {

/** Aggregate over one primitive kind (e.g. "otn.rootToLeaf"). */
struct PrimitiveStat
{
    std::uint64_t count = 0;          ///< charged executions
    ModelTime time = 0;               ///< summed charged span durations
    std::uint64_t unchargedCount = 0; ///< executions inside pipedo blocks
    std::uint64_t words = 0;          ///< root-port words (charged spans)
};

/** Aggregate over one tree (axis + index). */
struct TreeStat
{
    std::uint64_t count = 0;
    ModelTime time = 0;
    std::uint64_t words = 0;
};

/** One link of the critical phase chain. */
struct PhaseSegment
{
    std::string phase;    ///< innermost phase ("" = unphased)
    ModelTime begin = 0;  ///< model time the segment starts
    ModelTime end = 0;    ///< model time the segment ends
    ModelTime charged = 0;///< clock ticks charged within the segment
};

/** The analyzer's result. */
struct Summary
{
    ModelTime total = 0;         ///< sum of all charges == now()
    std::uint64_t steps = 0;     ///< number of charges (clock ticks)
    std::uint64_t rootWords = 0; ///< words through tree root ports
    std::uint64_t droppedEvents = 0;

    /** Charged model time by innermost phase ("" = unphased). */
    std::map<std::string, ModelTime> perPhase;

    /** Charged span time/count by primitive name. */
    std::map<std::string, PrimitiveStat> perPrimitive;

    /** Charged span time by (axis, tree index). */
    std::map<std::pair<TraceAxis, std::int64_t>, TreeStat> perTree;

    /** Charged span time by tree height (levels traversed). */
    std::map<std::uint32_t, ModelTime> perLevel;

    /** Chronological chain of innermost phases covering the run. */
    std::vector<PhaseSegment> criticalPath;

    /** Root-port words per unit model time. */
    double
    rootBandwidth() const
    {
        return total ? static_cast<double>(rootWords) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Human-readable report. */
    void writeText(std::ostream &os) const;

    /** The same report as a JSON object. */
    std::string toJson() const;
};

/** Digest the tracer's event stream. */
Summary analyze(const Tracer &tracer);

} // namespace ot::trace
