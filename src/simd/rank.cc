// otcheck:hotpath — radix ranks; scratch is reused per host thread
#include "simd/rank.hh"

#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "simd/kernels.hh"

namespace ot::simd {

namespace {

/**
 * Fill `order` with the indices of v[0..n) in (value, index) order.
 * `tmp` is the other side of each radix pass; the two vectors may be
 * swapped, and `order` holds the result.
 */
void
stableOrder(const std::uint64_t *v, std::size_t n,
            std::vector<std::uint32_t> &order, std::vector<std::uint32_t> &tmp)
{
    order.resize(n);
    tmp.resize(n);
    // The non-null words in index order, which each stable pass keeps
    // among equal digits, and the bits in which they differ.
    std::size_t m = 0;
    std::uint64_t first = 0, varies = 0;
    for (std::size_t j = 0; j < n; ++j) {
        if (v[j] == kNullWord)
            continue;
        if (m == 0)
            first = v[j];
        varies |= v[j] ^ first;
        order[m++] = static_cast<std::uint32_t>(j);
    }

    // One counting pass per byte that some word varies in, low byte
    // first: a byte every word shares cannot reorder anything.
    for (unsigned shift = 0; shift < 64; shift += 8) {
        if (((varies >> shift) & 0xff) == 0)
            continue;
        std::array<std::uint32_t, 256> start{};
        for (std::size_t t = 0; t < m; ++t)
            ++start[(v[order[t]] >> shift) & 0xff];
        std::uint32_t at = 0;
        for (std::uint32_t &s : start)
            at += std::exchange(s, at);
        for (std::size_t t = 0; t < m; ++t) {
            const std::uint32_t j = order[t];
            tmp[start[(v[j] >> shift) & 0xff]++] = j;
        }
        order.swap(tmp);
    }

    // kNullWord is the largest word: the null words come last, in
    // index order.
    for (std::size_t j = 0; m < n; ++j)
        if (v[j] == kNullWord)
            order[m++] = static_cast<std::uint32_t>(j);
}

} // namespace

void
rankCounts(std::uint64_t *rank, const std::uint64_t *a,
           const std::uint64_t *b, std::size_t n)
{
    assert(n <= std::numeric_limits<std::uint32_t>::max());
    thread_local std::vector<std::uint32_t> rows, cols, tmp;
    stableOrder(a, n, rows, tmp);
    stableOrder(b, n, cols, tmp);
    // Walking a's words in (value, index) order, the b words they
    // outrank only grow: p counts them.
    std::size_t p = 0;
    for (const std::uint32_t i : rows) {
        while (p < n && outranks(a[i], i, b[cols[p]], cols[p]))
            ++p;
        rank[i] = p;
    }
}

} // namespace ot::simd
