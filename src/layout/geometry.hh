/**
 * @file
 * Basic geometric types for chip layouts.
 *
 * All coordinates are in lambda (feature-size) units on a Manhattan
 * grid, per Thompson's model: unit-width wires, right-angle crossings
 * allowed, one bit of logic/storage per unit area.
 */

#pragma once

#include <cstdint>

#include "vlsi/delay.hh"

namespace ot::layout {

using vlsi::WireLength;

/** A point on the lambda grid. */
struct Point
{
    std::int64_t x = 0;
    std::int64_t y = 0;

    bool operator==(const Point &other) const = default;
};

/** Summary metrics of one chip layout. */
struct LayoutMetrics
{
    /** Bounding box width/height in lambda units. */
    std::uint64_t width = 0;
    std::uint64_t height = 0;
    /** Number of processors placed (base + internal). */
    std::uint64_t processors = 0;
    /** Number of wires routed. */
    std::uint64_t wires = 0;
    /** Sum of all wire lengths. */
    std::uint64_t totalWireLength = 0;
    /** Longest single wire. */
    WireLength longestWire = 0;

    /** Chip area A = width * height, the quantity in the paper's tables. */
    std::uint64_t area() const { return width * height; }
};

} // namespace ot::layout
