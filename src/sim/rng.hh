/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every generator in the tree — workload inputs, the scenario layer's
 * arrival streams, tests and benches — takes an explicit seed, so all
 * experiments are reproducible bit-for-bit across runs and hosts.  The
 * generator is SplitMix64 (Steele, Lea & Flood): tiny, fast, and with
 * well-understood statistical quality for simulation workloads.
 */

#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace ot::sim {

/** SplitMix64 generator with convenience distributions. */
class Rng
{
  public:
    /** The SplitMix64 sequence from state `seed`. */
    explicit Rng(std::uint64_t seed) : _state(seed) {}

    /**
     * Stream `stream` of `seed`, so one seed splits into any number of
     * independent sequences.  Streams are offset by a multiplier that
     * is *not* the SplitMix64 increment (otherwise stream k would be
     * stream 0 shifted by k draws), plus one warm-up draw to
     * decorrelate nearby (seed, stream) pairs.
     */
    Rng(std::uint64_t seed, std::uint64_t stream)
        : _state(seed ^ (0x94d049bb133111ebULL * (stream + 1)))
    {
        (void)next();
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (_state += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    uniform(std::uint64_t lo, std::uint64_t hi)
    {
        assert(lo <= hi);
        std::uint64_t span = hi - lo + 1;
        if (span == 0) // full 64-bit range
            return next();
        return lo + next() % span;
    }

    /** Bernoulli trial with probability p. */
    bool
    bernoulli(double p)
    {
        return static_cast<double>(next() >> 11) *
                   (1.0 / 9007199254740992.0) < p;
    }

    /** Uniform double in [0, 1). */
    double
    uniformReal()
    {
        return static_cast<double>(next() >> 11) / 9007199254740992.0;
    }

    /** Uniform double in (0, 1] — never 0, so std::log is safe. */
    double
    unitOpen()
    {
        return (static_cast<double>(next() >> 11) + 1.0) *
               (1.0 / 9007199254740992.0);
    }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(uniform(0, i - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** A random permutation of {0, ..., n-1}. */
    std::vector<std::uint64_t>
    permutation(std::size_t n)
    {
        std::vector<std::uint64_t> p(n);
        for (std::size_t i = 0; i < n; ++i)
            p[i] = i;
        shuffle(p);
        return p;
    }

    /** n distinct values in [0, limit), limit >= n. */
    std::vector<std::uint64_t>
    distinctValues(std::size_t n, std::uint64_t limit)
    {
        assert(limit >= n);
        // For small ranges use a permutation; otherwise rejection-free
        // sparse sampling via a sorted draw would be overkill here.
        std::vector<std::uint64_t> out;
        out.reserve(n);
        if (limit <= 4 * n) {
            std::vector<std::uint64_t> all(limit);
            for (std::uint64_t i = 0; i < limit; ++i)
                all[i] = i;
            shuffle(all);
            out.assign(all.begin(), all.begin() + static_cast<long>(n));
        } else {
            // Floyd's algorithm for distinct sampling.
            std::vector<std::uint64_t> seen;
            for (std::uint64_t j = limit - n; j < limit; ++j) {
                std::uint64_t t = uniform(0, j);
                bool hit = false;
                for (std::uint64_t s : seen)
                    hit = hit || (s == t);
                if (hit)
                    seen.push_back(j);
                else
                    seen.push_back(t);
            }
            out = seen;
        }
        return out;
    }

  private:
    std::uint64_t _state;
};

} // namespace ot::sim
