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
 * Shapes: a file built on a Grid of K cells per side with L words per
 * cell gives every plane a Shape tag and two K*L-word shape vectors.
 * Word (i, j, q) of a plane is word q of cell (i, j), at plane index
 * (i * K + j) * L + q.  An OTN (otn/network.hh) is the grid (N, 1), one
 * base processor per cell; an OTC (otc/network.hh) is (K, L), one
 * cycle of L base processors per cell.  A file built from a plane size
 * alone is shapeless: every plane stays Dense.  The vectors are one
 * separate, uninitialized allocation, made on the first tag: they are
 * written before they are read, so a file that is built but never
 * tagged (a cold machine build) pays nothing for them.  Tagging writes
 * only the vectors and never dirties the plane, so a plane that was
 * only ever tagged stays zero and clean.
 *
 * RegFile is the one owner of what a shape means (see Shape): it
 * resolves a point read, one cell's L words (what the OTC's streamed
 * primitives read) and one row's K*L words (what the row kernels
 * read) without expanding the plane; it expands ("materializes") a
 * tagged plane into its words and counts each expansion; and a plane
 * about to be overwritten whole is retagged Dense without expanding,
 * unless it is also an input.  plane() and at() assert that the plane
 * is Dense, so the networks materialize before they hand out words for
 * writing: their const reg() reads through the shape, while their
 * mutable reg() and regPlane() materialize first.  So the enumeration
 * sorts (SORT-OTN and SORT-OTC) and CONNECT's pointer jumping write no
 * plane word.  Row reads take a kernel table: on a grid with L = 1 a
 * RowConst row is one fill and a RankCount row one fill and one
 * cmpRankRow, the speed the OTN's row-wise primitives need.
 *
 * A Candidate plane (CONNECT's and MST's candidate plane T) is derived
 * from another plane, its source (the graph's A), besides its two label
 * vectors, so the file guards the source: a write handed out for it
 * (plane(), at(), overwrite(), tag()) first expands every Candidate
 * plane derived from it, which keeps their old words.  Row minima of a
 * Candidate plane (candidateRowMins) walk a packed presence mask of the
 * source, one bit per word and ceil(K / 64) words per row, with ctz:
 * the cost follows the edges, not the N^2 words.  The mask is built on
 * the first such walk after the source was written, kept for the later
 * ones, and dropped by the next write to the source and by clear(); its
 * storage is allocated on first use, never at construction.
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

#include <algorithm>
#include <bit>
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

#include "simd/kernels.hh"
#include "simd/rank.hh"

namespace ot::simd {

/**
 * How a plane is stored.  With g = i * L + q the row stream index of
 * word (i, j, q) and vec0, vec1 the plane's two shape vectors, the
 * word of a plane tagged
 *  - Dense is the plane's own word (i * K + j) * L + q;
 *  - RowConst is vec0[g] (every cell of row i holds the same L-word
 *    stream: a row broadcast);
 *  - ColConst is vec0[j * L + q] (every cell of column j holds the same
 *    stream: a column broadcast);
 *  - RowOneHot is vec1[g] if j == vec0[g], else kNullWord (stream g is
 *    absent but for one column; absent throughout if vec0[g] >= K);
 *  - RankCount is the number of words of column j's block
 *    vec1[j * L ... j * L + L) that vec0[g] outranks: is greater than,
 *    or equals with a larger global index (the enumeration sort's
 *    duplicate-safe tie-break, as in the cmpRankRow kernel and
 *    simd::outranks).  A row's sum over every block is the rank of its
 *    vec0 word among vec1 (simd::rankCounts ranks a whole vector);
 *  - Candidate (L = 1 only) is the candidate that the plane's
 *    CandidateRule derives from word (i, j) of its source plane and the
 *    labels mine = vec0[i] and theirs = vec1[j] (see candidate()).
 * With L = 1 (the OTN) g is i, a block is the one word vec1[j], and a
 * RankCount word is the 0/1 flag of comparing x(i) with x(j).
 */
enum class Shape : std::uint8_t {
    Dense,
    RowConst,
    ColConst,
    RowOneHot,
    RankCount,
    Candidate,
};

/** (w, u, v) packed so that numeric order is (w, u, v) lexicographic:
 *  MST's candidate edge word, with `idx_bits` bits per endpoint. */
inline constexpr std::uint64_t
packEdge(std::uint64_t w, std::uint64_t u, std::uint64_t v, unsigned idx_bits)
{
    return (w << (2 * idx_bits)) | (u << idx_bits) | v;
}

/**
 * How a Candidate plane derives its word at BP(i, j) from the word a of
 * its source plane there (step (2) of CONNECT and of Boruvka's MST on
 * the OTN).  The word is kNullWord unless (i, j) is an edge and its
 * endpoints carry different labels (mine != theirs); then it is
 *  - Label (CONNECT): theirs, where a == 1 marks an edge;
 *  - Edge (MST): packEdge(a, i, j, idxBits), where a != kNullWord is
 *    the edge's weight.
 */
struct CandidateRule
{
    enum class Kind : std::uint8_t { Label, Edge };
    Kind kind = Kind::Label;
    std::uint8_t idxBits = 0;
};

/** The word `rule` derives at BP(i, j) from source word `a` and the
 *  labels `mine` (row i's) and `theirs` (column j's). */
inline std::uint64_t
candidate(CandidateRule rule, std::uint64_t a, std::uint64_t mine,
          std::uint64_t theirs, std::size_t i, std::size_t j)
{
    if (rule.kind == CandidateRule::Kind::Label)
        return a == 1 && theirs != mine ? theirs : kNullWord;
    return a != kNullWord && mine != theirs ? packEdge(a, i, j, rule.idxBits)
                                            : kNullWord;
}

/** A shaped file's geometry: `k` cells per side, `l` words per cell. */
struct Grid
{
    std::size_t k;
    std::size_t l;
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

    /** `planes` shapeless planes of `plane_size` words: every plane
     *  stays Dense. */
    RegFile(unsigned planes, std::size_t plane_size)
        : _planes(planes),
          _planeSize(plane_size),
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

    /** `planes` planes of K * K * L words on `grid`, each with a shape
     *  tag and two K * L-word shape vectors. */
    RegFile(unsigned planes, Grid grid)
        : RegFile(planes, gridWords(grid))
    {
        _k = grid.k;
        _l = grid.l;
        _side = grid.k * grid.l;
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
        guardSource(p);
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
        guardSource(p);
        _dirty |= 1u << p;
        return _data[p * _stride + i];
    }

    std::uint64_t
    at(unsigned p, std::size_t i) const
    {
        assert(p < _planes && i < _planeSize && _shape[p] == Shape::Dense);
        return _data[p * _stride + i];
    }

    /** Plane index of word (i, j, q) of a shaped file. */
    std::size_t
    index(std::size_t i, std::size_t j, std::size_t q) const
    {
        assert(i < _k && j < _k && q < _l);
        return i * _side + j * _l + q;
    }

    /** Shape of plane `p`. */
    Shape
    shape(unsigned p) const
    {
        assert(p < _planes);
        return _shape[p];
    }

    /** Tag plane `p` with the non-Dense shape `s` (not Candidate: see
     *  tagCandidate) and return its two shape vectors, vec0 then vec1,
     *  K * L words each, for the caller to fill before the next read of
     *  `p`.  Neither reads nor writes (nor dirties) the plane's own
     *  words. */
    std::uint64_t *
    tag(unsigned p, Shape s)
    {
        assert(s != Shape::Candidate);
        return retag(p, s);
    }

    /** Tag plane `p` Candidate, derived from the Dense plane `source`
     *  by `rule`, and return its two shape vectors for the caller to
     *  fill with the labels: mine (vec0, one per row) and theirs (vec1,
     *  one per column).  A grid with L = 1 only. */
    std::uint64_t *
    tagCandidate(unsigned p, unsigned source, CandidateRule rule)
    {
        assert(_l == 1 && source < _planes && source != p &&
               _shape[source] == Shape::Dense);
        std::uint64_t *v = retag(p, Shape::Candidate);
        _derived[p] = {static_cast<std::uint8_t>(source), rule};
        _sources |= 1u << source;
        return v;
    }

    /** The shape vectors of tagged plane `p`. */
    const std::uint64_t *
    shapeVec(unsigned p) const
    {
        assert(p < _planes && _vecs);
        return _vecs.get() + p * 2 * _side;
    }

    /** Word (i, j, q) of plane `p`, read through its shape. */
    std::uint64_t
    word(unsigned p, std::size_t i, std::size_t j, std::size_t q) const
    {
        assert(i < _k && j < _k && q < _l);
        const std::size_t g = i * _l + q;
        switch (shape(p)) {
        case Shape::Dense:
            break;
        case Shape::RowConst:
            return shapeVec(p)[g];
        case Shape::ColConst:
            return shapeVec(p)[j * _l + q];
        case Shape::RowOneHot: {
            const std::uint64_t *v = shapeVec(p);
            return v[g] == j ? v[_side + g] : kNullWord;
        }
        case Shape::RankCount: {
            const std::uint64_t *v = shapeVec(p);
            std::uint64_t count = 0;
            for (std::size_t h = j * _l; h < (j + 1) * _l; ++h)
                count += outranks(v[g], g, v[_side + h], h) ? 1 : 0;
            return count;
        }
        case Shape::Candidate: {
            const Derivation d = _derived[p];
            const std::uint64_t *v = shapeVec(p);
            const std::uint64_t a = _data[d.source * _stride + index(i, j, 0)];
            return candidate(d.rule, a, v[i], v[_side + j], i, j);
        }
        }
        return _data[p * _stride + index(i, j, q)];
    }

    /**
     * Cell (i, j)'s L words of plane `p` for reading, without
     * materializing it: the plane's own words (Dense), the row's or
     * the column's stream in the shape vector (RowConst, ColConst), or
     * `buf` (L words) filled with the resolved words.
     */
    const std::uint64_t *
    cell(unsigned p, std::size_t i, std::size_t j, std::uint64_t *buf) const
    {
        switch (shape(p)) {
        case Shape::Dense:
            return _data + p * _stride + index(i, j, 0);
        case Shape::RowConst:
            return shapeVec(p) + i * _l;
        case Shape::ColConst:
            return shapeVec(p) + j * _l;
        case Shape::RowOneHot:
        case Shape::RankCount:
        case Shape::Candidate:
            break;
        }
        for (std::size_t q = 0; q < _l; ++q)
            buf[q] = word(p, i, j, q);
        return buf;
    }

    /**
     * Row i's K * L words of plane `p` for reading, without
     * materializing it: the plane's own row (Dense), the column vector
     * (ColConst), or `buf` (K * L words) filled with the row.  On a grid
     * with L = 1 a RowConst or RankCount row takes `kt`'s fill and
     * cmpRankRow kernels, the speed the OTN's row-wise primitives need;
     * a Candidate row is one pass over its source's row.
     */
    const std::uint64_t *
    row(unsigned p, std::size_t i, std::uint64_t *buf,
        const KernelTable &kt) const
    {
        assert(i < _k);
        switch (shape(p)) {
        case Shape::Dense:
            return _data + p * _stride + i * _side;
        case Shape::ColConst:
            return shapeVec(p);
        case Shape::RowConst:
        case Shape::RankCount:
            if (_l > 1)
                break;
            // x(i), splatted; a RankCount row compares it with every x(j).
            kt.fill(buf, _k, shapeVec(p)[i]);
            if (shape(p) == Shape::RankCount)
                kt.cmpRankRow(buf, buf, shapeVec(p) + _k, _k, i);
            return buf;
        case Shape::Candidate:
            return candidateRow(p, i, buf);
        case Shape::RowOneHot:
            break;
        }
        return rowOfCells(p, i, buf);
    }

    /** Materialize plane `p` unless it is Dense. */
    void
    makeDense(unsigned p, const KernelTable &kt)
    {
        if (shape(p) != Shape::Dense)
            materialize(p, kt);
    }

    /**
     * Plane `p`, about to be overwritten whole, Dense and marked dirty:
     * a tagged plane is materialized if it is also an input of the
     * overwrite (`is_input`), else just retagged Dense (its old words
     * are never read).
     */
    std::uint64_t *
    overwrite(unsigned p, bool is_input, const KernelTable &kt)
    {
        if (is_input)
            makeDense(p, kt);
        else
            _shape[p] = Shape::Dense;
        return plane(p);
    }

    /**
     * out[i] = the minimum of row i of Candidate plane `p` (kNullWord if
     * the row holds no candidate), for every row i: the words walked are
     * the set bits of the source's presence mask, each taken with ctz
     * and resolved by candidate() (a Label bit stands for a source word
     * of 1, so only the Edge rule reads the source).  Builds the mask if
     * the source was written since it was last built.
     */
    void
    candidateRowMins(unsigned p, std::uint64_t *out)
    {
        assert(shape(p) == Shape::Candidate);
        const Derivation d = _derived[p];
        const std::size_t words = maskWords();
        const std::uint64_t *bits = presenceMask(d.source, d.rule.kind);
        const std::uint64_t *a = _data + d.source * _stride;
        const std::uint64_t *mine = shapeVec(p);
        const std::uint64_t *theirs = mine + _side;
        const bool label = d.rule.kind == CandidateRule::Kind::Label;
        for (std::size_t i = 0; i < _k; ++i, a += _side, bits += words) {
            std::uint64_t best = kNullWord;
            for (std::size_t w = 0; w < words; ++w)
                for (std::uint64_t m = bits[w]; m != 0; m &= m - 1) {
                    const std::size_t j =
                        w * 64 + static_cast<std::size_t>(std::countr_zero(m));
                    best = std::min(best,
                                    candidate(d.rule, label ? 1 : a[j],
                                              mine[i], theirs[j], i, j));
                }
            out[i] = best;
        }
    }

    /** Tagged planes expanded into their words since construction. */
    std::uint64_t materializations() const { return _materializations; }

    /** Zero every dirty plane, mark all planes clean and Dense.  Only
     *  the planeSize() used words are written: the stride padding is
     *  never handed out, so it stays zero and never becomes resident.
     *  Shape vectors are left as they are: a Dense plane never reads
     *  them. */
    void
    clear()
    {
        _sources = 0;
        _maskSource = kNoPlane;
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
    /** Plane index meaning "none". */
    static constexpr unsigned kNoPlane = 32;

    /** What a Candidate plane is derived from. */
    struct Derivation
    {
        std::uint8_t source;
        CandidateRule rule;
    };

    /** Tag plane `p` with the non-Dense shape `s`; returns its vectors. */
    std::uint64_t *
    retag(unsigned p, Shape s)
    {
        assert(p < _planes && _side > 0 && s != Shape::Dense);
        guardSource(p);
        if (!_vecs)
            _vecs.reset(new std::uint64_t[vecWords(_planes, _side)]);
        _shape[p] = s;
        return _vecs.get() + p * 2 * _side;
    }

    /** Plane `p`'s words are about to change: if a Candidate plane or
     *  the presence mask is derived from it, release it first. */
    void
    guardSource(unsigned p)
    {
        if (_sources >> p & 1u) [[unlikely]]
            releaseSource(p);
    }

    /** Expand every Candidate plane derived from plane `p` (they keep
     *  the words they had) and drop `p`'s presence mask. */
    [[gnu::noinline]] void
    releaseSource(unsigned p)
    {
        _sources &= ~(1u << p);
        if (_maskSource == p)
            _maskSource = kNoPlane;
        for (unsigned q = 0; q < _planes; ++q)
            if (_shape[q] == Shape::Candidate && _derived[q].source == p) {
                std::uint64_t *lane = _data + q * _stride;
                for (std::size_t i = 0; i < _k; ++i)
                    candidateRow(q, i, lane + i * _side);
                markExpanded(q);
            }
    }

    /** Row i of Candidate plane `p`, resolved into `buf` (K words). */
    const std::uint64_t *
    candidateRow(unsigned p, std::size_t i, std::uint64_t *buf) const
    {
        const Derivation d = _derived[p];
        const std::uint64_t *a = _data + d.source * _stride + i * _side;
        const std::uint64_t *v = shapeVec(p);
        for (std::size_t j = 0; j < _k; ++j)
            buf[j] = candidate(d.rule, a[j], v[i], v[_side + j], i, j);
        return buf;
    }

    /** Words per row of the presence mask. */
    std::size_t maskWords() const { return (_k + 63) / 64; }

    /**
     * The presence mask of plane `source` under `kind`: bit j % 64 of
     * word j / 64 of row i is set iff word (i, j) marks an edge (== 1
     * for Label, != kNullWord for Edge).  Built unless the mask already
     * holds it; the storage is allocated on the first build.
     */
    const std::uint64_t *
    presenceMask(unsigned source, CandidateRule::Kind kind)
    {
        if (_maskSource == source && _maskKind == kind)
            return _mask.get();
        if (!_mask)
            _mask.reset(new std::uint64_t[_k * maskWords()]);
        const std::uint64_t *a = _data + source * _stride;
        if (kind == CandidateRule::Kind::Label)
            packPresence(a, [](std::uint64_t w) { return w == 1; });
        else
            packPresence(a, [](std::uint64_t w) { return w != kNullWord; });
        _maskSource = source;
        _maskKind = kind;
        _sources |= 1u << source;
        return _mask.get();
    }

    /** Pack present(word) of the K x K plane at `a` into the mask: 64
     *  words into 64 0/1 bytes, then each 8 bytes into 8 bits by one
     *  multiply (bit q of the product's top byte is byte q; no two
     *  partial products share a bit, so nothing carries). */
    template <typename Present>
    void
    packPresence(const std::uint64_t *a, Present &&present)
    {
        static_assert(std::endian::native == std::endian::little);
        std::uint64_t *bits = _mask.get();
        for (std::size_t i = 0; i < _k; ++i, a += _side)
            for (std::size_t base = 0; base < _k; base += 64) {
                const std::size_t count = std::min<std::size_t>(64, _k - base);
                unsigned char flags[64] = {};
                for (std::size_t b = 0; b < count; ++b)
                    flags[b] = present(a[base + b]);
                std::uint64_t m = 0;
                for (unsigned q = 0; q < 8; ++q) {
                    std::uint64_t eight;
                    std::memcpy(&eight, flags + 8 * q, sizeof eight);
                    m |= (eight * 0x0102040810204080u) >> 56 << (8 * q);
                }
                *bits++ = m;
            }
    }

    /** Plane `p`'s words now hold what its shape meant: tag it Dense,
     *  mark it dirty and count the expansion. */
    void
    markExpanded(unsigned p)
    {
        _shape[p] = Shape::Dense;
        _dirty |= 1u << p;
        ++_materializations;
    }

    /** Row i of plane `p` copied cell by cell into `buf`: the tagged
     *  rows without a kernel path.  Out of line, so that row() stays
     *  small enough to inline into the row-wise primitives. */
    [[gnu::noinline]] const std::uint64_t *
    rowOfCells(unsigned p, std::size_t i, std::uint64_t *buf) const
    {
        for (std::size_t j = 0; j < _k; ++j) {
            std::uint64_t *dst = buf + j * _l;
            const std::uint64_t *words = cell(p, i, j, dst);
            if (words != dst)
                std::memcpy(dst, words, _l * sizeof(std::uint64_t));
        }
        return buf;
    }

    /** Expand tagged plane `p` into its words, row by row, tag it Dense
     *  and count the expansion.  Kept out of line: it is the cold branch
     *  of every mutable access, and inlined there it made an OTN's
     *  per-word write loop twice as slow. */
    [[gnu::noinline]] void
    materialize(unsigned p, const KernelTable &kt)
    {
        std::uint64_t *lane = _data + p * _stride;
        for (std::size_t i = 0; i < _k; ++i) {
            std::uint64_t *dst = lane + i * _side;
            const std::uint64_t *words = row(p, i, dst, kt);
            if (words != dst)
                std::memcpy(dst, words, _side * sizeof(std::uint64_t));
        }
        markExpanded(p);
    }

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

    /** Words per plane of `grid` (K * K * L); throws on overflow. */
    static std::size_t
    gridWords(Grid grid)
    {
        std::size_t words;
        if (__builtin_mul_overflow(grid.k, grid.k, &words) ||
            __builtin_mul_overflow(words, grid.l, &words))
            throw std::bad_alloc();
        return words;
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
    std::size_t _k = 0;    // cells per side (0: shapeless)
    std::size_t _l = 0;    // words per cell
    std::size_t _side = 0; // K * L: one row, and one shape vector
    std::size_t _align;
    std::size_t _stride;
    std::unique_ptr<void, decltype(&std::free)> _block;
    std::unique_ptr<std::uint64_t[]> _vecs; // shape vectors, 2 per plane
    std::uint64_t *_data;
    std::uint64_t _materializations = 0;
    // Not a character type, so stores to plane words cannot alias it.
    Shape _shape[32] = {};
    Derivation _derived[32] = {}; // meaningful for Candidate planes only
    // The presence mask of plane _maskSource (kNoPlane: none), built
    // under _maskKind; ceil(K / 64) words per row.
    std::unique_ptr<std::uint64_t[]> _mask;
    unsigned _maskSource = kNoPlane;
    CandidateRule::Kind _maskKind = CandidateRule::Kind::Label;
    // A uint32 on purpose: a uint64 member could alias the plane words
    // and force a reload and store on every at().
    std::uint32_t _dirty = 0;
    // Bit p: a Candidate plane or the mask is derived from plane p.
    std::uint32_t _sources = 0;
};

} // namespace ot::simd
