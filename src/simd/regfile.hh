/**
 * @file
 * Struct-of-arrays register file for the network simulators.
 *
 * Instead of a vector-of-vectors (one heap block per named register),
 * every register is one contiguous, cache-line-aligned lane — a
 * "plane" of machine words — inside a single allocation, indexed by
 * the register's enumerator value.  The batch kernels
 * (simd/kernels.hh) stream whole rows or levels of a plane with
 * vector loads, so this layout *is* the optimization: one level of
 * one register is one contiguous span, and every plane starts on a
 * vector-friendly boundary.
 *
 * RegFile owns storage only: it performs no model-time accounting.
 * A run pays only for the planes it writes:
 *  - The block comes from calloc, so every plane reads zero (the
 *    machines' power-on state) without a memset; the OS hands out
 *    zero pages on first touch, and a plane never written never
 *    becomes resident.
 *  - A dirty mask records the planes handed out for writing: the
 *    non-const plane() and at() set the plane's bit, the const
 *    accessors do not.  Writes must go through a pointer or reference
 *    obtained after the last clear().
 *  - clear() zeroes only the dirty planes, then resets the mask.
 *    Unoptimized (Debug) builds also assert that every clean plane is
 *    still all-zero, which catches a write that bypassed the mark.
 *    Optimized builds keep their other assertions but skip this scan:
 *    it would read every clean plane on every clear.
 */

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

namespace ot::simd {

/** SoA block of `planes` equally sized u64 lanes, 64-byte aligned. */
class RegFile
{
  public:
    /** Alignment of every plane, in bytes (one x86 cache line; a
     *  multiple of every vector width we dispatch to). */
    static constexpr std::size_t kAlign = 64;

    RegFile(unsigned planes, std::size_t plane_size)
        : _planes(planes),
          _planeSize(plane_size),
          _stride(roundUp(plane_size)),
          _block(std::calloc(_stride * planes * sizeof(std::uint64_t) +
                                 kAlign,
                             1),
                 &std::free)
    {
        assert(planes <= 32); // one dirty bit per plane
        if (!_block)
            throw std::bad_alloc();
        const auto addr = reinterpret_cast<std::uintptr_t>(_block.get());
        _data = reinterpret_cast<std::uint64_t *>((addr + kAlign - 1) &
                                                  ~(kAlign - 1));
    }

    /** Number of planes (named registers). */
    unsigned planes() const { return _planes; }

    /** Words per plane (the machine's base-processor count). */
    std::size_t planeSize() const { return _planeSize; }

    /** Bit p is set iff plane p was handed out for writing since
     *  construction or the last clear(). */
    std::uint32_t dirtyMask() const { return _dirty; }

    /** Contiguous lane of register `p` (aligned to kAlign); marks
     *  the plane dirty. */
    std::uint64_t *
    plane(unsigned p)
    {
        assert(p < _planes);
        _dirty |= 1u << p;
        return _data + p * _stride;
    }

    const std::uint64_t *
    plane(unsigned p) const
    {
        assert(p < _planes);
        return _data + p * _stride;
    }

    /** Word `i` of plane `p` (the scalar element accessor); marks the
     *  plane dirty. */
    std::uint64_t &
    at(unsigned p, std::size_t i)
    {
        assert(p < _planes && i < _planeSize);
        _dirty |= 1u << p;
        return _data[p * _stride + i];
    }

    std::uint64_t
    at(unsigned p, std::size_t i) const
    {
        assert(p < _planes && i < _planeSize);
        return _data[p * _stride + i];
    }

    /** Zero every dirty plane and mark all planes clean. */
    void
    clear()
    {
        for (unsigned p = 0; p < _planes; ++p) {
            std::uint64_t *lane = _data + p * _stride;
            if (_dirty >> p & 1u) {
                std::memset(lane, 0, _stride * sizeof(std::uint64_t));
                continue;
            }
#if !defined(NDEBUG) && !defined(__OPTIMIZE__)
            for (std::size_t i = 0; i < _stride; ++i)
                assert(lane[i] == 0 && "plane written without marking it");
#endif
        }
        _dirty = 0;
    }

  private:
    static std::size_t
    roundUp(std::size_t words)
    {
        constexpr std::size_t per = kAlign / sizeof(std::uint64_t);
        return (words + per - 1) / per * per;
    }

    unsigned _planes;
    std::size_t _planeSize;
    std::size_t _stride;
    std::unique_ptr<void, decltype(&std::free)> _block;
    std::uint64_t *_data;
    // A uint32 on purpose: a uint64 member could alias the plane words
    // and force a reload and store on every at().
    std::uint32_t _dirty = 0;
};

} // namespace ot::simd
