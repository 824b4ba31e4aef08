#pragma once

/**
 * @file
 * Deterministic pseudo-random number generation (SplitMix64 +
 * xoshiro256**). All workload generators derive from a fixed seed so
 * every run of every bench and test is reproducible bit-for-bit.
 */

#include <array>
#include <cstdint>
#include <limits>

namespace pushtap {

/** SplitMix64: seeds xoshiro and produces well-mixed 64-bit streams. */
class SplitMix64
{
  public:
    explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

    constexpr std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

  private:
    std::uint64_t state_;
};

/**
 * xoshiro256** generator. Satisfies UniformRandomBitGenerator so it can
 * be used with <random> distributions, but also offers convenience
 * helpers that avoid distribution-object churn in hot loops.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL)
    {
        SplitMix64 sm(seed);
        for (auto &s : state_)
            s = sm.next();
    }

    static constexpr result_type min()
    {
        return 0;
    }

    static constexpr result_type max()
    {
        return std::numeric_limits<result_type>::max();
    }

    result_type
    operator()()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound), bound > 0. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Lemire's multiply-shift rejection-free approximation is fine
        // for workload generation (bias < 2^-64 * bound).
        return static_cast<std::uint64_t>(
            (static_cast<__uint128_t>((*this)()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t
    inRange(std::int64_t lo, std::int64_t hi)
    {
        return lo + static_cast<std::int64_t>(
                        below(static_cast<std::uint64_t>(hi - lo + 1)));
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p. */
    bool
    flip(double p)
    {
        return uniform() < p;
    }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
};

/**
 * TPC-C style NURand non-uniform distribution helper.
 *
 * NURand(A, x, y) = (((rand(0,A) | rand(x,y)) + C) % (y - x + 1)) + x
 */
class NuRand
{
  public:
    NuRand(Rng &rng, std::uint64_t a, std::uint64_t c)
        : rng_(rng), a_(a), c_(c)
    {}

    std::int64_t
    operator()(std::int64_t x, std::int64_t y)
    {
        const auto r1 = static_cast<std::uint64_t>(rng_.inRange(0,
            static_cast<std::int64_t>(a_)));
        const auto r2 = static_cast<std::uint64_t>(rng_.inRange(x, y));
        return static_cast<std::int64_t>(((r1 | r2) + c_)
                   % static_cast<std::uint64_t>(y - x + 1)) + x;
    }

  private:
    Rng &rng_;
    std::uint64_t a_;
    std::uint64_t c_;
};

} // namespace pushtap
