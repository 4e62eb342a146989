// otcheck:hotpath — kernel-table dispatch; keep allocation-free
/**
 * @file
 * Backend resolution: cpuid detection, the OT_SIMD override
 * (hard error on bad values — differential CI depends on the override
 * never silently falling back), and the once-resolved kernel table.
 */

#include "simd/backend.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "simd/kernels.hh"

namespace ot::simd {

const char *
toString(Backend b)
{
    switch (b) {
      case Backend::Scalar:
        return "scalar";
      case Backend::Avx2:
        return "avx2";
      case Backend::Neon:
        return "neon";
    }
    return "?";
}

bool
backendCompiled(Backend b)
{
    bool compiled = b == Backend::Scalar;
#if defined(OT_SIMD_HAVE_AVX2)
    compiled = compiled || b == Backend::Avx2;
#endif
    return compiled;
}

bool
backendAvailable(Backend b)
{
    if (!backendCompiled(b))
        return false;
#if defined(OT_SIMD_HAVE_AVX2)
    if (b == Backend::Avx2)
        return __builtin_cpu_supports("avx2") != 0;
#endif
    // Scalar always runs.
    return true;
}

Backend
backendFromSpec(const char *spec)
{
    Backend b = Backend::Scalar;
    if (std::strcmp(spec, "scalar") == 0) {
        b = Backend::Scalar;
    } else if (std::strcmp(spec, "avx2") == 0) {
        b = Backend::Avx2;
    } else if (std::strcmp(spec, "neon") == 0) {
        b = Backend::Neon;
    } else {
        std::fprintf(stderr,
                     "OT_SIMD: unknown backend '%s' (expected scalar, "
                     "avx2 or neon)\n",
                     spec);
        std::abort();
    }
    if (!backendAvailable(b)) {
        std::fprintf(stderr,
                     "OT_SIMD: backend '%s' is %s on this host; "
                     "refusing to fall back\n",
                     toString(b),
                     backendCompiled(b) ? "not supported by the CPU"
                                        : "not compiled in");
        std::abort();
    }
    return b;
}

Backend
resolveBackendFromEnv()
{
    if (const char *spec = std::getenv("OT_SIMD"))
        return backendFromSpec(spec);
    if (backendAvailable(Backend::Avx2))
        return Backend::Avx2;
    return Backend::Scalar;
}

Backend
activeBackend()
{
    static const Backend b = resolveBackendFromEnv();
    return b;
}

const KernelTable &
kernelsFor(Backend b)
{
    switch (b) {
      case Backend::Scalar:
        return scalarKernels();
#if defined(OT_SIMD_HAVE_AVX2)
      case Backend::Avx2:
        return avx2Kernels();
#endif
      default:
        std::fprintf(stderr, "simd: backend '%s' not compiled in\n",
                     toString(b));
        std::abort();
    }
}

const KernelTable &
kernels()
{
    static const KernelTable &table = kernelsFor(activeBackend());
    return table;
}

} // namespace ot::simd
