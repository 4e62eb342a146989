// otcheck:hotpath — batch kernel bodies; keep allocation-free
/**
 * @file
 * Scalar "vector" view: one u64 lane, portable C++.
 *
 * The batch kernels in kernels_generic.hh are written once against
 * this compile-time interface (the chuffed int-view idiom) and
 * instantiated per instruction set.  The scalar view is the semantic
 * reference: every wider view must produce lane-for-lane identical
 * results, which the backend-differential tests enforce.
 *
 * Lane masks follow the hardware convention: all-ones for true,
 * all-zeros for false, per lane.
 */

#pragma once

#include <cstddef>
#include <cstdint>

namespace ot::simd {

struct ScalarVec
{
    static constexpr std::size_t kWidth = 1;

    using Reg = std::uint64_t;

    static Reg load(const std::uint64_t *p) { return *p; }

    static void store(std::uint64_t *p, Reg v) { *p = v; }

    static Reg splat(std::uint64_t x) { return x; }

    /** {start, start + 1, .., start + kWidth - 1}. */
    static Reg iota(std::uint64_t start) { return start; }

    static Reg add(Reg a, Reg b) { return a + b; }

    /** Low 64 bits of a * b per lane (the product mod 2^64). */
    static Reg mulLo(Reg a, Reg b) { return a * b; }

    /** mulLo for a b whose lanes are all below 2^32 (may be cheaper). */
    static Reg mulLoNarrow(Reg a, Reg b) { return a * b; }

    /** lo32(a) * lo32(b) per lane: one 32 x 32 -> 64 multiply, the
     *  exact product when both lanes are below 2^32. */
    static Reg
    mulU32(Reg a, Reg b)
    {
        return (a & 0xffffffffu) * (b & 0xffffffffu);
    }

    static Reg
    minU(Reg a, Reg b)
    {
        return a < b ? a : b;
    }

    static Reg
    maxU(Reg a, Reg b)
    {
        return a > b ? a : b;
    }

    /** Per-lane all-ones iff equal. */
    static Reg
    eq(Reg a, Reg b)
    {
        return a == b ? ~std::uint64_t{0} : 0;
    }

    /** Per-lane all-ones iff a > b (unsigned). */
    static Reg
    gtU(Reg a, Reg b)
    {
        return a > b ? ~std::uint64_t{0} : 0;
    }

    static Reg bitAnd(Reg a, Reg b) { return a & b; }

    static Reg bitOr(Reg a, Reg b) { return a | b; }

    /** Per lane: mask ? a : b (mask lanes are all-ones or all-zeros). */
    static Reg
    blend(Reg mask, Reg a, Reg b)
    {
        return (a & mask) | (b & ~mask);
    }

    /** True iff any lane of a mask register is set. */
    static bool any(Reg mask) { return mask != 0; }

    /** Sum of lanes mod 2^64. */
    static std::uint64_t hsum(Reg v) { return v; }

    /** Unsigned min of lanes. */
    static std::uint64_t hminU(Reg v) { return v; }
};

} // namespace ot::simd
