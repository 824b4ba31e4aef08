#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/log.hpp"

#include "common/rng.hpp"
#include "txn/hash_index.hpp"

namespace pushtap::txn {
namespace {

TEST(HashIndex, InsertLookup)
{
    HashIndex idx;
    idx.insert(42, 7);
    idx.insert(43, 8);
    EXPECT_EQ(idx.lookup(42), RowId{7});
    EXPECT_EQ(idx.lookup(43), RowId{8});
    EXPECT_EQ(idx.lookup(44), std::nullopt);
    EXPECT_EQ(idx.size(), 2u);
}

TEST(HashIndex, OverwriteKeepsSize)
{
    HashIndex idx;
    idx.insert(1, 10);
    idx.insert(1, 20);
    EXPECT_EQ(idx.size(), 1u);
    EXPECT_EQ(idx.lookup(1), RowId{20});
}

TEST(HashIndex, GrowsUnderLoad)
{
    HashIndex idx(4);
    for (std::uint64_t k = 0; k < 10000; ++k)
        idx.insert(k * 2654435761ULL, k);
    for (std::uint64_t k = 0; k < 10000; ++k)
        ASSERT_EQ(idx.lookup(k * 2654435761ULL), RowId{k});
}

TEST(HashIndex, ProbeCountStaysLowAtModerateLoad)
{
    HashIndex idx(1024);
    pushtap::Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        idx.insert(rng(), static_cast<RowId>(i));
    pushtap::Rng rng2(3);
    std::uint64_t total = 0;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t probes = 0;
        idx.lookup(rng2(), &probes);
        total += probes;
    }
    // Open addressing at < 70% load: ~1-2 probes per lookup.
    EXPECT_LT(static_cast<double>(total) / 1000.0, 2.5);
}

TEST(HashIndex, PackKeyDistinct)
{
    EXPECT_NE(packKey(1, 2, 3), packKey(1, 3, 2));
    EXPECT_NE(packKey(0, 0, 5), packKey(5, 0, 0));
    EXPECT_EQ(packKey(1, 2, 3), packKey(1, 2, 3));
}

TEST(HashIndex, ZeroKeyWorks)
{
    HashIndex idx;
    idx.insert(0, 99);
    EXPECT_EQ(idx.lookup(0), RowId{99});
}

TEST(HashIndex, PackKeyBoundariesFit)
{
    // The widest representable value of each field round-trips
    // without touching its neighbours.
    EXPECT_EQ(packKey(kPackKeyMaxA, 0, 0), kPackKeyMaxA << 40);
    EXPECT_EQ(packKey(0, kPackKeyMaxB, 0), kPackKeyMaxB << 32);
    EXPECT_EQ(packKey(0, 0, kPackKeyMaxC), kPackKeyMaxC);
    // Compile-time evaluation keeps working for in-range keys.
    static_assert(packKey(1, 2, 3) ==
                  ((1ull << 40) | (2ull << 32) | 3ull));
}

TEST(HashIndex, PackKeyOverflowIsFatal)
{
    // Each field in turn, one past its capacity. Before the
    // mask-and-check fix these silently aliased into neighbouring
    // fields (b has only 8 bits at 32-39; c has 32).
    EXPECT_THROW(packKey(kPackKeyMaxA + 1, 0, 0), FatalError);
    EXPECT_THROW(packKey(0, kPackKeyMaxB + 1, 0), FatalError);
    EXPECT_THROW(packKey(0, 0, kPackKeyMaxC + 1), FatalError);
    // The regression that motivated the check: an oversized b used
    // to collide with a's low bits instead of failing.
    EXPECT_THROW(packKey(0, 1ull << 8, 0), FatalError);
}

TEST(HashIndex, LookupIsConstWithCallerProbes)
{
    HashIndex idx;
    idx.insert(7, 70);
    const HashIndex &ro = idx;
    std::uint64_t probes = 0;
    EXPECT_EQ(ro.lookup(7, &probes), RowId{70});
    EXPECT_GE(probes, 1u);
    std::uint64_t miss_probes = 0;
    EXPECT_EQ(ro.lookup(8, &miss_probes), std::nullopt);
    EXPECT_GE(miss_probes, 1u);
}

TEST(HashIndex, ConcurrentInsertAndLookup)
{
    // One writer streams inserts (forcing several growth rehashes
    // from a tiny initial capacity) while readers continuously probe.
    // Every key observed as present must carry its final row value.
    HashIndex idx(4);
    constexpr std::uint64_t kKeys = 20000;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> wrong{0};

    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&, r] {
            pushtap::Rng rng(100 + r);
            while (!stop.load(std::memory_order_acquire)) {
                const std::uint64_t k = rng.below(kKeys);
                const auto row = idx.lookup(k * 2654435761ULL);
                if (row && *row != k)
                    wrong.fetch_add(1,
                                    std::memory_order_relaxed);
            }
        });
    }
    for (std::uint64_t k = 0; k < kKeys; ++k)
        idx.insert(k * 2654435761ULL, k);
    stop.store(true, std::memory_order_release);
    for (auto &t : readers)
        t.join();

    EXPECT_EQ(wrong.load(), 0u);
    EXPECT_EQ(idx.size(), kKeys);
    for (std::uint64_t k = 0; k < kKeys; ++k)
        ASSERT_EQ(idx.lookup(k * 2654435761ULL), RowId{k});
}

} // namespace
} // namespace pushtap::txn
