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
 *    obtained after the last clear() and after the plane was last
 *    tagged (below).
 *  - clear() zeroes the used words of the dirty planes only, resets
 *    the mask and sets every shape back to Dense.  Unoptimized
 *    (Debug) builds also assert that every clean plane, and the
 *    padding after every plane, is still all-zero, which catches a
 *    write that bypassed the mark.  Optimized builds keep their other
 *    assertions but skip this scan: it would read every clean plane on
 *    every clear.
 *
 * Shapes: a file built with a nonzero `side` gives every plane a
 * Shape tag and two side-word shape vectors.  The vectors are one
 * separate, uninitialized allocation, made on the first request for
 * them: they are written before they are read, so a file that is
 * built but never tagged (a cold machine build) pays nothing for
 * them.  A plane tagged RowConst or ColConst holds one value per row
 * or per column (what a row or column broadcast leaves); its words
 * are in the first shape vector and the plane's own words are stale.
 * RowOneHot keeps a column index per row in the first vector and that
 * column's value in the second; every other word of the row is the
 * owner's absent word.  RankCount is the enumeration sort's compare
 * plane, a function of the two vectors (row values in the first,
 * column values in the second; see Shape).  Tagging writes only the
 * vectors and never dirties the plane, so a plane that was only ever
 * tagged stays zero and clean.
 *
 * RegFile stores tags and vectors but gives them no meaning: the owner
 * maps a word's address to vector indices, resolves reads through
 * them and expands ("materializes") a tagged plane before handing it
 * out for writing, and plane() and at() assert that the plane is
 * Dense.  The OTN (otn/network.hh) passes side = N for its N x N
 * planes, so a row or column is one vector index; the OTC
 * (otc/network.hh) passes side = K * L, one L-word cycle stream per
 * row or column, so word (i, j, q) is index i * L + q of a row vector
 * and j * L + q of a column vector.  On both, the const
 * reg() reads through the shape, while the mutable reg() and
 * regPlane() materialize first; so the enumeration sorts (SORT-OTN
 * and SORT-OTC) and CONNECT's pointer jumping write no plane word.
 *
 * Planes of at least kHugePage bytes (2 MB; N >= 512 on the OTN) sit
 * on transparent huge pages where the host allows it:
 *  - The block is aligned to kHugePage and the plane stride rounded up
 *    to a whole number of huge pages, so no huge page straddles two
 *    planes.
 *  - Each plane's used interior, rounded down to whole huge pages, is
 *    advised MADV_HUGEPAGE.  The partial tail of a plane stays on
 *    4 KB pages, so it costs only the pages a run touches.  Without
 *    THP (the kernel's setting is `never`, or the host is not Linux)
 *    the advice fails or is compiled out, and the failure is ignored:
 *    planes then fault in 4 KB at a time, as before.
 *  - First touch stays lazy: an unwritten plane is still never
 *    resident.  RSS note: a huge page becomes resident as a whole on
 *    the first write into it, so a sparsely written plane can cost up
 *    to 2 MB per written huge page; a plane written end to end costs
 *    what it did on 4 KB pages.
 *  - Virtual size grows by at most kHugePage per file for the block
 *    alignment plus the stride rounding of each plane.
 * Smaller planes keep kAlign alignment and no advice.
 *
 * Size arithmetic is checked: a file whose block size would overflow
 * std::size_t throws std::bad_alloc instead of allocating a wrapped,
 * too-small block.
 */

#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#if __has_include(<sys/mman.h>)
#include <sys/mman.h>
#endif

namespace ot::simd {

/**
 * How a plane is stored.  On a plane of side x side words (the OTN),
 * word (i, j) of a plane tagged
 *  - Dense is the plane's own word i * side + j;
 *  - RowConst is vec0[i] (one value per row: a row broadcast);
 *  - ColConst is vec0[j] (one value per column: a column broadcast);
 *  - RowOneHot is vec1[i] if j == vec0[i], else the owner's absent
 *    word (a row that is empty but for one column, or empty if
 *    vec0[i] >= side);
 *  - RankCount is the number of vec1 words in column j's block that
 *    vec0[i] outranks: is greater than, or equals with a larger global
 *    index (the enumeration sort's duplicate-safe tie-break, as in
 *    the cmpRankRow kernel and simd::outranks).  On the OTN a block is
 *    the one word vec1[j], so the word is the 0/1 flag of comparing
 *    x(i) with x(j).  A row's sum over every block is the rank of its
 *    vec0 word among vec1 (simd::rankCounts ranks a whole vector).
 * The owner defines the addresses: the OTC's words (i, j, q) take
 * vec0[i * L + q] and vec0[j * L + q] for RowConst and ColConst, and
 * its RankCount block is column j's L words vec1[j * L ...], so word
 * (i, j, q) counts how many of them vec0[i * L + q] outranks.
 */
enum class Shape : std::uint8_t {
    Dense,
    RowConst,
    ColConst,
    RowOneHot,
    RankCount,
};

/** SoA block of `planes` equally sized u64 lanes, 64-byte aligned. */
class RegFile
{
  public:
    /** Alignment of every plane, in bytes (one x86 cache line; a
     *  multiple of every vector width we dispatch to). */
    static constexpr std::size_t kAlign = 64;

    /** Huge-page size: planes of at least this many bytes are aligned
     *  to it, span a whole number of it and are advised onto THP. */
    static constexpr std::size_t kHugePage = std::size_t{2} << 20;

    /** `planes` planes of `plane_size` words; a nonzero `side` also
     *  gives each plane two side-word shape vectors (side = N on the
     *  OTN, K * L on the OTC). */
    RegFile(unsigned planes, std::size_t plane_size, std::size_t side = 0)
        : _planes(planes),
          _planeSize(plane_size),
          _side(side),
          _align(alignFor(plane_size)),
          _stride(roundUp(plane_size, _align / sizeof(std::uint64_t))),
          _block(std::calloc(blockBytes(planes, _stride, _align), 1),
                 &std::free)
    {
        assert(planes <= 32); // one dirty bit per plane
        if (!_block)
            throw std::bad_alloc();
        const auto addr = reinterpret_cast<std::uintptr_t>(_block.get());
        _data = reinterpret_cast<std::uint64_t *>((addr + _align - 1) &
                                                  ~(_align - 1));
#ifdef MADV_HUGEPAGE
        if (_align == kHugePage) {
            // Interiors that abut (planes of whole huge pages) take one
            // call: a call that leaves a gap splits the mapping, which
            // costs microseconds per plane at build and at free.
            const std::size_t interior =
                _planeSize * sizeof(std::uint64_t) / kHugePage * kHugePage;
            const std::size_t stride_bytes = _stride * sizeof(std::uint64_t);
            if (interior == stride_bytes)
                (void)::madvise(_data, stride_bytes * _planes,
                                MADV_HUGEPAGE);
            else
                for (unsigned p = 0; p < _planes; ++p)
                    (void)::madvise(_data + p * _stride, interior,
                                    MADV_HUGEPAGE);
        }
#endif
    }

    /** Number of planes (named registers). */
    unsigned planes() const { return _planes; }

    /** Words per plane (the machine's base-processor count). */
    std::size_t planeSize() const { return _planeSize; }

    /** Bit p is set iff plane p was handed out for writing since
     *  construction or the last clear(). */
    std::uint32_t dirtyMask() const { return _dirty; }

    /** Contiguous lane of register `p` (aligned to kAlign, and to
     *  kHugePage for planes of at least that size); marks the plane
     *  dirty.  The plane must be Dense. */
    std::uint64_t *
    plane(unsigned p)
    {
        assert(p < _planes && _shape[p] == Shape::Dense);
        _dirty |= 1u << p;
        return _data + p * _stride;
    }

    const std::uint64_t *
    plane(unsigned p) const
    {
        assert(p < _planes && _shape[p] == Shape::Dense);
        return _data + p * _stride;
    }

    /** Word `i` of plane `p` (the scalar element accessor); marks the
     *  plane dirty.  The plane must be Dense. */
    std::uint64_t &
    at(unsigned p, std::size_t i)
    {
        assert(p < _planes && i < _planeSize && _shape[p] == Shape::Dense);
        _dirty |= 1u << p;
        return _data[p * _stride + i];
    }

    std::uint64_t
    at(unsigned p, std::size_t i) const
    {
        assert(p < _planes && i < _planeSize && _shape[p] == Shape::Dense);
        return _data[p * _stride + i];
    }

    /** Shape of plane `p`. */
    Shape
    shape(unsigned p) const
    {
        assert(p < _planes);
        return _shape[p];
    }

    /** Tag plane `p` with shape `s`; neither reads nor writes (nor
     *  dirties) the plane's own words. */
    void
    setShape(unsigned p, Shape s)
    {
        assert(p < _planes && (s == Shape::Dense || _side > 0));
        _shape[p] = s;
    }

    /** Plane `p`'s two shape vectors, vec0 then vec1, `side` words
     *  each (allocated on the first call).  Writing them does not dirty
     *  the plane. */
    std::uint64_t *
    shapeVec(unsigned p)
    {
        assert(p < _planes && _side > 0);
        if (!_vecs)
            _vecs.reset(new std::uint64_t[vecWords(_planes, _side)]);
        return _vecs.get() + p * 2 * _side;
    }

    /** The const form serves tagged planes only, whose vectors exist. */
    const std::uint64_t *
    shapeVec(unsigned p) const
    {
        assert(p < _planes && _vecs);
        return _vecs.get() + p * 2 * _side;
    }

    /** Zero every dirty plane, mark all planes clean and Dense.  Only
     *  the planeSize() used words are written: the stride padding is
     *  never handed out, so it stays zero and never becomes resident.
     *  Shape vectors are left as they are: a Dense plane never reads
     *  them. */
    void
    clear()
    {
        for (unsigned p = 0; p < _planes; ++p) {
            _shape[p] = Shape::Dense;
            std::uint64_t *lane = _data + p * _stride;
            const bool dirty = _dirty >> p & 1u;
            if (dirty)
                std::memset(lane, 0, _planeSize * sizeof(std::uint64_t));
#if !defined(NDEBUG) && !defined(__OPTIMIZE__)
            for (std::size_t i = dirty ? _planeSize : 0; i < _stride; ++i)
                assert(lane[i] == 0 && "plane written without marking it");
#endif
        }
        _dirty = 0;
    }

  private:
    /** Block and plane alignment, in bytes, for planes of `words`. */
    static std::size_t
    alignFor(std::size_t words)
    {
        return words >= kHugePage / sizeof(std::uint64_t) ? kHugePage
                                                          : kAlign;
    }

    /** `x` rounded up to a multiple of `to`; throws on overflow. */
    static std::size_t
    roundUp(std::size_t x, std::size_t to)
    {
        std::size_t sum;
        if (__builtin_add_overflow(x, to - 1, &sum))
            throw std::bad_alloc();
        return sum / to * to;
    }

    /** Bytes to calloc for `planes` lanes of `stride` words plus the
     *  alignment slack; throws on overflow. */
    static std::size_t
    blockBytes(unsigned planes, std::size_t stride, std::size_t align)
    {
        std::size_t bytes;
        if (__builtin_mul_overflow(stride, sizeof(std::uint64_t), &bytes) ||
            __builtin_mul_overflow(bytes, std::size_t{planes}, &bytes) ||
            __builtin_add_overflow(bytes, align, &bytes))
            throw std::bad_alloc();
        return bytes;
    }

    /** Words of `planes` pairs of `side`-word shape vectors; throws on
     *  overflow. */
    static std::size_t
    vecWords(unsigned planes, std::size_t side)
    {
        std::size_t words;
        if (__builtin_mul_overflow(side, 2 * std::size_t{planes}, &words))
            throw std::bad_alloc();
        return words;
    }

    unsigned _planes;
    std::size_t _planeSize;
    std::size_t _side;
    std::size_t _align;
    std::size_t _stride;
    std::unique_ptr<void, decltype(&std::free)> _block;
    std::unique_ptr<std::uint64_t[]> _vecs; // shape vectors, 2 per plane
    std::uint64_t *_data;
    // Not a character type, so stores to plane words cannot alias it.
    Shape _shape[32] = {};
    // A uint32 on purpose: a uint64 member could alias the plane words
    // and force a reload and store on every at().
    std::uint32_t _dirty = 0;
};

} // namespace ot::simd
