// otcheck:hotpath — batch kernel bodies; keep allocation-free
/**
 * @file
 * NEON vector view: 2 x u64 lanes (aarch64 Advanced SIMD baseline).
 *
 * Like AVX2, NEON lacks 64-bit unsigned min/max, so both come from
 * vcgtq_u64 plus a bitwise select, and a 64-bit multiply, so mulLo
 * multiplies lane by lane.  This header may only be included
 * from src/simd (the otcheck intrinsics rule bans raw intrinsics
 * elsewhere) and only compiled on aarch64.
 */

#pragma once

#include <arm_neon.h>

#include <cstddef>
#include <cstdint>

namespace ot::simd {

struct NeonVec
{
    static constexpr std::size_t kWidth = 2;

    using Reg = uint64x2_t;

    static Reg load(const std::uint64_t *p) { return vld1q_u64(p); }

    static void store(std::uint64_t *p, Reg v) { vst1q_u64(p, v); }

    static Reg splat(std::uint64_t x) { return vdupq_n_u64(x); }

    static Reg
    iota(std::uint64_t start)
    {
        const std::uint64_t lanes[kWidth] = {start, start + 1};
        return vld1q_u64(lanes);
    }

    static Reg add(Reg a, Reg b) { return vaddq_u64(a, b); }

    static Reg
    mulLo(Reg a, Reg b)
    {
        // No 64-bit lane multiply in Advanced SIMD: one per lane.
        const std::uint64_t lanes[kWidth] = {
            vgetq_lane_u64(a, 0) * vgetq_lane_u64(b, 0),
            vgetq_lane_u64(a, 1) * vgetq_lane_u64(b, 1)};
        return vld1q_u64(lanes);
    }

    static Reg mulLoNarrow(Reg a, Reg b) { return mulLo(a, b); }

    /** Kernels call mulU32 only on lanes below 2^32, where mulLo is
     *  the same product. */
    static Reg mulU32(Reg a, Reg b) { return mulLo(a, b); }

    static Reg
    minU(Reg a, Reg b)
    {
        return blend(gtU(a, b), b, a);
    }

    static Reg
    maxU(Reg a, Reg b)
    {
        return blend(gtU(a, b), a, b);
    }

    static Reg eq(Reg a, Reg b) { return vceqq_u64(a, b); }

    static Reg gtU(Reg a, Reg b) { return vcgtq_u64(a, b); }

    static Reg bitAnd(Reg a, Reg b) { return vandq_u64(a, b); }

    static Reg bitOr(Reg a, Reg b) { return vorrq_u64(a, b); }

    static Reg
    blend(Reg mask, Reg a, Reg b)
    {
        return vbslq_u64(mask, a, b);
    }

    static bool
    any(Reg mask)
    {
        return (vgetq_lane_u64(mask, 0) | vgetq_lane_u64(mask, 1)) != 0;
    }

    static std::uint64_t
    hsum(Reg v)
    {
        return vgetq_lane_u64(v, 0) + vgetq_lane_u64(v, 1);
    }

    static std::uint64_t
    hminU(Reg v)
    {
        const std::uint64_t a = vgetq_lane_u64(v, 0);
        const std::uint64_t b = vgetq_lane_u64(v, 1);
        return a < b ? a : b;
    }
};

} // namespace ot::simd
