#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace pushtap {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int differs = 0;
    for (int i = 0; i < 32; ++i)
        differs += a() != b();
    EXPECT_GT(differs, 28);
}

TEST(Rng, BelowStaysInBound)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, InRangeInclusiveBounds)
{
    Rng r(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.inRange(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        saw_lo |= v == 3;
        saw_hi |= v == 7;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = r.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, FlipMatchesProbability)
{
    Rng r(13);
    int heads = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        heads += r.flip(0.3);
    EXPECT_NEAR(static_cast<double>(heads) / n, 0.3, 0.02);
}

TEST(NuRand, StaysInRange)
{
    Rng r(3);
    NuRand nu(r, 255, 123);
    for (int i = 0; i < 5000; ++i) {
        const auto v = nu(1, 3000);
        EXPECT_GE(v, 1);
        EXPECT_LE(v, 3000);
    }
}

TEST(NuRand, IsNonUniform)
{
    // NURand concentrates mass; variance of bucket counts should be
    // clearly above uniform expectation.
    Rng r(3);
    NuRand nu(r, 255, 42);
    std::array<int, 10> buckets{};
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        buckets[static_cast<std::size_t>(nu(0, 999)) / 100]++;
    int max_bucket = 0, min_bucket = n;
    for (int b : buckets) {
        max_bucket = std::max(max_bucket, b);
        min_bucket = std::min(min_bucket, b);
    }
    EXPECT_GT(max_bucket - min_bucket, n / 100);
}

} // namespace
} // namespace pushtap
