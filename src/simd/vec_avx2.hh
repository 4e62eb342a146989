// otcheck:hotpath — batch kernel bodies; keep allocation-free
/**
 * @file
 * AVX2 vector view: 4 x u64 lanes.
 *
 * AVX2 has no unsigned 64-bit compare or min/max, so both are derived
 * from the signed compare after flipping the sign bit of each lane
 * (x XOR 2^63 maps unsigned order onto signed order); min/max then
 * blend on the comparison mask.  Nor does it have a 64-bit multiply,
 * so mulLo is put together from 32 x 32 -> 64 products.  Those are the
 * only per-ISA cleverness — everything else is a direct transcription
 * of the ScalarVec contract.
 *
 * This header may only be included from src/simd (the otcheck
 * intrinsics rule bans raw intrinsics elsewhere) and only compiled in
 * the dedicated -mavx2 translation unit.
 */

#pragma once

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

namespace ot::simd {

struct Avx2Vec
{
    static constexpr std::size_t kWidth = 4;

    using Reg = __m256i;

    static Reg
    load(const std::uint64_t *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }

    static void
    store(std::uint64_t *p, Reg v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), v);
    }

    static Reg splat(std::uint64_t x) { return _mm256_set1_epi64x(x); }

    static Reg
    iota(std::uint64_t start)
    {
        return _mm256_add_epi64(splat(start),
                                _mm256_set_epi64x(3, 2, 1, 0));
    }

    static Reg add(Reg a, Reg b) { return _mm256_add_epi64(a, b); }

    static Reg
    mulLo(Reg a, Reg b)
    {
        // AVX2 multiplies 32 x 32 -> 64 only: the low word of a * b is
        // lo(a) lo(b) + ((hi(a) lo(b) + lo(a) hi(b)) << 32).
        const Reg cross =
            add(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
                _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
        return add(_mm256_mul_epu32(a, b), _mm256_slli_epi64(cross, 32));
    }

    static Reg
    mulLoNarrow(Reg a, Reg b)
    {
        // hi(b) == 0, so the lo(a) hi(b) term drops out.
        const Reg cross = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
        return add(_mm256_mul_epu32(a, b), _mm256_slli_epi64(cross, 32));
    }

    static Reg mulU32(Reg a, Reg b) { return _mm256_mul_epu32(a, b); }

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

    static Reg eq(Reg a, Reg b) { return _mm256_cmpeq_epi64(a, b); }

    static Reg
    gtU(Reg a, Reg b)
    {
        const Reg flip = splat(std::uint64_t{1} << 63);
        return _mm256_cmpgt_epi64(_mm256_xor_si256(a, flip),
                                  _mm256_xor_si256(b, flip));
    }

    static Reg bitAnd(Reg a, Reg b) { return _mm256_and_si256(a, b); }

    static Reg bitOr(Reg a, Reg b) { return _mm256_or_si256(a, b); }

    static Reg
    blend(Reg mask, Reg a, Reg b)
    {
        return _mm256_blendv_epi8(b, a, mask);
    }

    static bool
    any(Reg mask)
    {
        return _mm256_movemask_epi8(mask) != 0;
    }

    static std::uint64_t
    hsum(Reg v)
    {
        alignas(32) std::uint64_t lanes[kWidth];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), v);
        return lanes[0] + lanes[1] + lanes[2] + lanes[3];
    }

    static std::uint64_t
    hminU(Reg v)
    {
        alignas(32) std::uint64_t lanes[kWidth];
        _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), v);
        std::uint64_t m = lanes[0];
        for (std::size_t i = 1; i < kWidth; ++i)
            m = lanes[i] < m ? lanes[i] : m;
        return m;
    }
};

} // namespace ot::simd
