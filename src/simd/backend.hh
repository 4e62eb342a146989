// otcheck:hotpath — kernel-table dispatch; keep allocation-free
/**
 * @file
 * Runtime SIMD backend selection for the batch kernels.
 *
 * The level-synchronous tree primitives are written once against a
 * compile-time vector "view" (see kernels_generic.hh) and instantiated
 * per instruction set: scalar, and AVX2 on x86-64.  At startup one
 * KernelTable of plain function pointers is resolved — AVX2 when cpuid
 * reports it, else scalar (aarch64 runs the scalar table), or the
 * OT_SIMD override — and every hot loop indirects through that table.
 * No virtual dispatch, no per-call detection, no allocation: the
 * table is a static constant per backend and the active pointer is set
 * exactly once.
 *
 * OT_SIMD accepts `scalar`, `avx2` or `neon`.  Naming a backend that
 * was not compiled in, or is not supported by the host CPU, or any
 * other string, is a hard configuration error: the process aborts with
 * a diagnostic (differential CI legs depend on the override doing what
 * it says, never silently falling back).
 */

#pragma once

#include <cstdint>

namespace ot::simd {

/** Instruction-set backends a KernelTable can be compiled for. */
enum class Backend : std::uint8_t {
    Scalar, ///< portable C++ fallback, always compiled
    Avx2,   ///< x86-64 AVX2 (4 x u64 lanes)
    Neon,   ///< a name only: no table is built, so OT_SIMD=neon aborts
};

/** Stable lowercase name (`scalar`, `avx2`, `neon`). */
const char *toString(Backend b);

/**
 * Parse an OT_SIMD-style spec and check the named backend is compiled
 * in and runnable on this CPU.  Aborts with a diagnostic on an unknown
 * name or an unavailable backend; never falls back.
 */
Backend backendFromSpec(const char *spec);

/** True iff a kernel table for `b` was compiled into this binary. */
bool backendCompiled(Backend b);

/** True iff `b` is compiled in and supported by the host CPU. */
bool backendAvailable(Backend b);

/**
 * Resolve the backend from the environment right now, without caching:
 * OT_SIMD if set (aborting on bad values), else the best available
 * instruction set.  Tests use this to exercise the override logic
 * repeatedly; production code goes through activeBackend().
 */
Backend resolveBackendFromEnv();

/**
 * The backend the active kernel table was resolved to: OT_SIMD if set
 * (aborting on bad values), else the best available instruction set.
 * Resolved once; subsequent calls return the cached decision.
 */
Backend activeBackend();

} // namespace ot::simd
