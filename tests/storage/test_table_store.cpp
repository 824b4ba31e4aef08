#include <gtest/gtest.h>

#include "common/log.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "format/generators.hpp"
#include "storage/table_store.hpp"

namespace pushtap::storage {
namespace {

format::TableSchema
testSchema()
{
    return format::TableSchema(
        "t", {
                 {"a", 4, format::ColType::Int, true},
                 {"b", 8, format::ColType::Int, true},
                 {"c", 2, format::ColType::Int, true},
                 {"pad", 10, format::ColType::Char, false},
             });
}

class TableStoreTest : public ::testing::Test
{
  protected:
    TableStoreTest()
        : schema(testSchema()),
          layout(format::compactAligned(schema, 4, 0.6)),
          store(layout, format::BlockCirculant(4, 8), 64, 32)
    {}

    format::TableSchema schema;
    format::TableLayout layout;
    TableStore store;
};

TEST_F(TableStoreTest, RowRoundTripBothRegions)
{
    pushtap::Rng rng(5);
    std::vector<std::uint8_t> row(schema.rowBytes());
    for (Region reg : {Region::Data, Region::Delta}) {
        for (RowId r = 0; r < 16; ++r) {
            for (auto &b : row)
                b = static_cast<std::uint8_t>(rng.below(256));
            store.writeRow(reg, r, row);
            std::vector<std::uint8_t> out(schema.rowBytes());
            store.readRow(reg, r, out);
            EXPECT_EQ(out, row);
        }
    }
}

TEST_F(TableStoreTest, ColumnValueMatchesRowBytes)
{
    std::vector<std::uint8_t> row(schema.rowBytes(), 0);
    // a = -77 (4 B LE), b = 123456789, c = 999.
    const std::int64_t a = -77, b = 123456789, c = 999;
    auto put = [&](ColumnId id, std::int64_t v) {
        const auto off = schema.canonicalOffset(id);
        for (std::uint32_t i = 0; i < schema.column(id).width; ++i)
            row[off + i] =
                static_cast<std::uint8_t>((v >> (8 * i)) & 0xff);
    };
    put(schema.columnId("a"), a);
    put(schema.columnId("b"), b);
    put(schema.columnId("c"), c);
    store.writeRow(Region::Data, 7, row);
    EXPECT_EQ(store.columnValue(Region::Data, schema.columnId("a"),
                                7),
              a);
    EXPECT_EQ(store.columnValue(Region::Data, schema.columnId("b"),
                                7),
              b);
    EXPECT_EQ(store.columnValue(Region::Data, schema.columnId("c"),
                                7),
              c);
}

TEST_F(TableStoreTest, CopyDeltaToDataSameRotation)
{
    std::vector<std::uint8_t> row(schema.rowBytes());
    for (std::size_t i = 0; i < row.size(); ++i)
        row[i] = static_cast<std::uint8_t>(i + 1);
    // Row 3 (block 0) and delta slot 5 (block 0): same rotation.
    ASSERT_TRUE(store.sameRotation(3, 5));
    store.writeRow(Region::Delta, 5, row);
    const Bytes moved = store.copyDeltaToData(5, 3, 1);
    EXPECT_EQ(moved, layout.bytesPerDevicePerRow() * 4u);
    std::vector<std::uint8_t> out(schema.rowBytes());
    store.readRow(Region::Data, 3, out);
    EXPECT_EQ(out, row);
}

TEST_F(TableStoreTest, CrossRotationCopyPanics)
{
    // Row 3 is block 0; delta slot 9 is block 1 (block size 8):
    // rotations differ.
    ASSERT_FALSE(store.sameRotation(3, 9));
    EXPECT_DEATH(store.copyDeltaToData(9, 3, 1), "rotation");
}

TEST_F(TableStoreTest, RunCopyEqualsRowCopies)
{
    // Delta slots 25..29 (block 3) over data rows 57..61 (block 7):
    // both rotation class 3 of four. One run copy of 5 rows must land
    // what 5 single-row copies land in a twin store.
    TableStore twin(layout, format::BlockCirculant(4, 8), 64, 32);
    ASSERT_TRUE(store.sameRotation(57, 25));
    pushtap::Rng rng(8);
    std::vector<std::uint8_t> row(schema.rowBytes());
    for (RowId r = 24; r < 32; ++r) {
        for (auto &b : row)
            b = static_cast<std::uint8_t>(rng.below(256));
        store.writeRow(Region::Delta, r, row);
        twin.writeRow(Region::Delta, r, row);
    }
    const Bytes moved = store.copyDeltaToData(25, 57, 5);
    Bytes single = 0;
    for (RowId i = 0; i < 5; ++i)
        single += twin.copyDeltaToData(25 + i, 57 + i, 1);
    EXPECT_EQ(moved, single);
    EXPECT_EQ(moved, 5u * layout.bytesPerDevicePerRow() * 4u);
    for (std::uint32_t p = 0; p < layout.parts().size(); ++p)
        for (std::uint32_t d = 0; d < 4; ++d)
            EXPECT_TRUE(
                std::ranges::equal(store.partBytes(Region::Data, p, d),
                                   twin.partBytes(Region::Data, p, d)))
                << "part " << p << " device " << d;
}

TEST_F(TableStoreTest, RunCopyLeavingABlockPanics)
{
    // Rows and slots 6..9 share rotations row by row but cross from
    // block 0 into block 1 (block size 8): not one device-local run.
    ASSERT_TRUE(store.sameRotation(6, 6));
    EXPECT_DEATH(store.copyDeltaToData(6, 6, 4), "rotation block");
    EXPECT_DEATH(store.copyDeltaToData(0, 0, 65), "rotation block");
    EXPECT_EQ(store.copyDeltaToData(0, 0, 0), 0u);
}

TEST_F(TableStoreTest, VisibilityDefaults)
{
    EXPECT_EQ(store.dataVisible().count(), 64u);
    EXPECT_EQ(store.deltaVisible().count(), 0u);
}

TEST_F(TableStoreTest, RegionBytesIncludePadding)
{
    const Bytes per_row = layout.paddedRowBytes();
    EXPECT_GE(per_row, schema.rowBytes());
    EXPECT_EQ(store.regionBytes(Region::Data), per_row * 64);
    EXPECT_EQ(store.regionBytes(Region::Delta), per_row * 32);
}

TEST_F(TableStoreTest, SnapshotStorageReplicatedPerDevice)
{
    // One word per bitmap, two bitmaps, four devices.
    EXPECT_EQ(store.snapshotStorageBytes(), (8u + 8u) * 4u);
}

TEST_F(TableStoreTest, OutOfRangePanics)
{
    std::vector<std::uint8_t> row(schema.rowBytes(), 0);
    EXPECT_DEATH(store.writeRow(Region::Data, 64, row), "capacity");
    EXPECT_DEATH(store.readRow(Region::Delta, 32, row), "capacity");

    // One byte short of a canonical row.
    const std::span<std::uint8_t> short_row(row.data(),
                                            row.size() - 1);
    EXPECT_DEATH(store.writeRow(Region::Data, 0, short_row),
                 "row buffer");
    EXPECT_DEATH(store.readRow(Region::Data, 0, short_row),
                 "row buffer");
}

} // namespace
} // namespace pushtap::storage
