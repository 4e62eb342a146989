// otcheck:fixture-path src/otn/fixture_bad_intrinsics.cc
//
// Known-bad intrinsics fixture: a src/otn file reaching for raw
// vector intrinsics instead of going through simd::KernelTable.
// Intrinsic headers, x86 vector types and calls, and NEON vector
// types and calls are all caught; the scalar tail loop is not.
// This file is checker input, never compiled.
#include <arm_neon.h> // expect: intrinsics
#include <cstddef>
#include <cstdint>
#include <immintrin.h> // expect: intrinsics

void
avx2Fill(std::uint64_t *dst, std::size_t n, std::uint64_t v)
{
    __m256i s =                                        // expect: intrinsics
        _mm256_set1_epi64x(static_cast<long long>(v)); // expect: intrinsics
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_si256(                          // expect: intrinsics
            reinterpret_cast<__m256i *>(dst + i), s); // expect: intrinsics
    for (; i < n; ++i)
        dst[i] = v;
}

std::uint64_t
neonSum(const std::uint64_t *src, std::size_t n)
{
    uint64x2_t acc =    // expect: intrinsics
        vdupq_n_u64(0); // expect: intrinsics
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2)
        acc = vaddq_u64(                           // expect: intrinsics
            acc, vld1q_u64(src + i));              // expect: intrinsics
    std::uint64_t total = vgetq_lane_u64(acc, 0) + // expect: intrinsics
                          vgetq_lane_u64(acc, 1);  // expect: intrinsics
    for (; i < n; ++i)
        total += src[i];
    return total;
}
