#include <gtest/gtest.h>

#include "common/log.hpp"

#include <vector>

#include "format/generators.hpp"
#include "mvcc/snapshotter.hpp"

namespace pushtap::mvcc {
namespace {

format::TableSchema
testSchema()
{
    return format::TableSchema(
        "t", {
                 {"k", 4, format::ColType::Int, true},
                 {"v", 4, format::ColType::Int, true},
             });
}

class SnapshotterTest : public ::testing::Test
{
  protected:
    SnapshotterTest()
        : schema(testSchema()),
          layout(format::compactAligned(schema, 4, 0.6)),
          circ(4, 8),
          store(layout, circ, 32, 64),
          vm(circ, 64, 32)
    {}

    /** Create a version of @p row at @p ts carrying value @p val. */
    RowId
    update(RowId row, Timestamp ts, std::int64_t val)
    {
        const RowId slot = vm.allocDeltaSlot(row);
        std::vector<std::uint8_t> bytes(schema.rowBytes(), 0);
        for (int i = 0; i < 4; ++i)
            bytes[4 + i] =
                static_cast<std::uint8_t>((val >> (8 * i)) & 0xff);
        store.writeRow(storage::Region::Delta, slot, bytes);
        vm.addVersion(row, slot, ts);
        return slot;
    }

    format::TableSchema schema;
    format::TableLayout layout;
    format::BlockCirculant circ;
    storage::TableStore store;
    VersionManager vm;
    Snapshotter snap;
};

TEST_F(SnapshotterTest, FreshStoreAllDataVisible)
{
    const auto stats = snap.snapshot(store, vm, 100);
    EXPECT_EQ(stats.versionsScanned, 0u);
    EXPECT_EQ(store.dataVisible().count(), 32u);
    EXPECT_EQ(store.deltaVisible().count(), 0u);
}

TEST_F(SnapshotterTest, UpdateFlipsVisibility)
{
    const RowId slot = update(3, 10, 42);
    const auto stats = snap.snapshot(store, vm, 100);
    EXPECT_EQ(stats.versionsScanned, 1u);
    EXPECT_FALSE(store.dataVisible().test(3));
    EXPECT_TRUE(store.deltaVisible().test(slot));
    // Exactly one row visible per logical row.
    EXPECT_EQ(store.dataVisible().count() +
                  store.deltaVisible().count(),
              32u);
}

TEST_F(SnapshotterTest, FutureVersionsSkipped)
{
    // Fig. 6(c): T5 is issued after the query and is skipped.
    update(3, 10, 1);
    const RowId future = update(4, 200, 2);
    const auto stats = snap.snapshot(store, vm, 100);
    EXPECT_EQ(stats.versionsScanned, 1u);
    EXPECT_EQ(stats.versionsSkipped, 1u);
    EXPECT_TRUE(store.dataVisible().test(4));
    EXPECT_FALSE(store.deltaVisible().test(future));
}

TEST_F(SnapshotterTest, ChainKeepsOnlyNewestVisible)
{
    const RowId s1 = update(5, 10, 1);
    const RowId s2 = update(5, 20, 2);
    const RowId s3 = update(5, 30, 3);
    snap.snapshot(store, vm, 100);
    EXPECT_FALSE(store.dataVisible().test(5));
    EXPECT_FALSE(store.deltaVisible().test(s1));
    EXPECT_FALSE(store.deltaVisible().test(s2));
    EXPECT_TRUE(store.deltaVisible().test(s3));
}

TEST_F(SnapshotterTest, IncrementalAcrossSnapshots)
{
    update(1, 10, 1);
    auto stats = snap.snapshot(store, vm, 50);
    EXPECT_EQ(stats.versionsScanned, 1u);

    update(2, 60, 2);
    stats = snap.snapshot(store, vm, 100);
    // Only the new version is processed the second time.
    EXPECT_EQ(stats.versionsScanned, 1u);
    EXPECT_FALSE(store.dataVisible().test(1));
    EXPECT_FALSE(store.dataVisible().test(2));
}

TEST_F(SnapshotterTest, SkippedVersionProcessedLater)
{
    update(1, 10, 1);
    const RowId s2 = update(2, 60, 2);
    snap.snapshot(store, vm, 50); // skips ts=60
    EXPECT_TRUE(store.dataVisible().test(2));
    const auto stats = snap.snapshot(store, vm, 70);
    EXPECT_EQ(stats.versionsScanned, 1u);
    EXPECT_TRUE(store.deltaVisible().test(s2));
}

TEST_F(SnapshotterTest, BitmapTrafficReplicatedPerDevice)
{
    update(1, 10, 1);
    const auto stats = snap.snapshot(store, vm, 50);
    // Two bits flipped, 8 B word each, replicated on 4 devices.
    EXPECT_EQ(stats.bitsFlipped, 2u);
    EXPECT_EQ(stats.bitmapBytesWritten, 2u * 8 * 4);
    EXPECT_EQ(stats.metadataBytesRead, kMetadataBytes);
}

TEST_F(SnapshotterTest, OutOfOrderAppendsSnapshotCorrectly)
{
    // Concurrent partitions append out of commit order across rows;
    // the snapshotter must fall back to the order-insensitive scan
    // and still expose exactly the versions at or below ts.
    const RowId s_new = update(3, 40, 3); // row 3 @ 40
    const RowId s_old = update(4, 20, 4); // row 4 @ 20: out of order
    const RowId s_fut = update(5, 90, 5); // row 5 @ 90: future
    ASSERT_FALSE(vm.appendsCommitOrdered());

    const auto stats = snap.snapshot(store, vm, 50);
    EXPECT_EQ(stats.versionsScanned, 2u);
    EXPECT_EQ(stats.versionsSkipped, 1u);
    EXPECT_TRUE(store.deltaVisible().test(s_new));
    EXPECT_TRUE(store.deltaVisible().test(s_old));
    EXPECT_FALSE(store.deltaVisible().test(s_fut));
    EXPECT_FALSE(store.dataVisible().test(3));
    EXPECT_FALSE(store.dataVisible().test(4));
    EXPECT_TRUE(store.dataVisible().test(5));

    // The parked future version surfaces once ts catches up, even
    // with nothing new appended.
    const auto later = snap.snapshot(store, vm, 100);
    EXPECT_EQ(later.versionsScanned, 1u);
    EXPECT_EQ(later.versionsSkipped, 0u);
    EXPECT_TRUE(store.deltaVisible().test(s_fut));
    EXPECT_FALSE(store.dataVisible().test(5));
}

TEST_F(SnapshotterTest, OutOfOrderChainKeepsNewestVisible)
{
    // Per-row order is still append order; interleave a second row
    // between two versions of the first and snapshot in two steps.
    const RowId a1 = update(6, 30, 1);
    const RowId b1 = update(7, 10, 2); // out of global order
    const RowId a2 = update(6, 50, 3);
    ASSERT_FALSE(vm.appendsCommitOrdered());

    snap.snapshot(store, vm, 40); // sees a1, b1; parks a2
    EXPECT_TRUE(store.deltaVisible().test(a1));
    EXPECT_TRUE(store.deltaVisible().test(b1));
    EXPECT_FALSE(store.deltaVisible().test(a2));

    snap.snapshot(store, vm, 60); // a2 supersedes a1
    EXPECT_FALSE(store.deltaVisible().test(a1));
    EXPECT_TRUE(store.deltaVisible().test(a2));
    EXPECT_TRUE(store.deltaVisible().test(b1));
}

} // namespace
} // namespace pushtap::mvcc
