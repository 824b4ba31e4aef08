#include <gtest/gtest.h>

/**
 * @file
 * RowCodec edge cases added during build bring-up: tables with zero
 * rows (commit of an empty batch must not touch any device region)
 * and schemas at the width extremes (max-width Int columns, wide Char
 * columns, single-column tables) across the layout threshold range.
 */

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "format/generators.hpp"
#include "format/row_codec.hpp"

namespace pushtap::format {
namespace {

/** In-memory stand-in for per-device part regions. */
class FakeStore
{
  public:
    auto
    writer()
    {
        return [this](std::uint32_t part, std::uint32_t dev,
                      std::uint64_t off,
                      std::span<const std::uint8_t> data) {
            auto &region = regions_[{part, dev}];
            if (region.size() < off + data.size())
                region.resize(off + data.size(), 0xEE);
            std::copy(data.begin(), data.end(),
                      region.begin() + static_cast<long>(off));
        };
    }

    auto
    reader()
    {
        return [this](std::uint32_t part, std::uint32_t dev,
                      std::uint64_t off,
                      std::span<std::uint8_t> out) {
            const auto &region = regions_.at({part, dev});
            ASSERT_LE(off + out.size(), region.size());
            std::copy_n(region.begin() + static_cast<long>(off),
                        out.size(), out.begin());
        };
    }

    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::vector<std::uint8_t>>
        regions_;
};

/** Round-trip @p nrows random rows of @p schema at @p threshold. */
void
roundTrip(TableSchema schema, std::uint32_t devices, double threshold,
          RowId nrows)
{
    const auto layout = compactAligned(schema, devices, threshold);
    const RowCodec codec(layout, BlockCirculant(devices, 2));
    FakeStore store;

    pushtap::Rng rng(99);
    std::vector<std::vector<std::uint8_t>> rows;
    for (RowId r = 0; r < nrows; ++r) {
        std::vector<std::uint8_t> row(schema.rowBytes());
        for (auto &b : row)
            b = static_cast<std::uint8_t>(rng.below(256));
        codec.scatter(r, row, store.writer());
        rows.push_back(std::move(row));
    }
    for (RowId r = 0; r < nrows; ++r) {
        std::vector<std::uint8_t> out(schema.rowBytes(), 0);
        codec.gather(r, store.reader(), out);
        ASSERT_EQ(out, rows[r]) << "row " << r;
    }
}

TEST(RowCodecEdges, ZeroRowTableConstructsAndReportsCosts)
{
    // A codec over a zero-row table must be constructible and report
    // a sane per-row fragment count without any device I/O; the
    // round-trip helper with nrows = 0 exercises the (empty) batch
    // path end to end.
    const TableSchema s("empty_batch",
                        {{"k", 8, ColType::Int, true},
                         {"v", 32, ColType::Char, false}});
    const auto layout = compactAligned(s, 4, 0.75);
    const RowCodec codec(layout, BlockCirculant(4, 2));
    EXPECT_GE(codec.fragmentsPerRow(), s.columnCount());
    roundTrip(s, 4, 0.75, 0);
}

TEST(RowCodecEdges, MaxWidthIntColumnsRoundTrip)
{
    // Int columns at the documented maximum width (8 bytes).
    TableSchema s("wide_ints", {{"a", 8, ColType::Int, true},
                                {"b", 8, ColType::Int, false},
                                {"c", 8, ColType::Int, true},
                                {"d", 8, ColType::Int, false}});
    for (double th : {0.0, 0.5, 1.0})
        roundTrip(s, 4, th, 16);
}

TEST(RowCodecEdges, WideCharColumnsRoundTrip)
{
    // Char columns far wider than one device slot force multi-device
    // shredding of a single column.
    TableSchema s("wide_chars", {{"id", 4, ColType::Int, true},
                                 {"blob", 255, ColType::Char, false},
                                 {"note", 100, ColType::Char, false}});
    for (double th : {0.0, 0.5, 1.0})
        roundTrip(s, 8, th, 8);
}

TEST(RowCodecEdges, SingleColumnSchemasRoundTrip)
{
    // Narrowest possible table: one 1-byte column, as key and as
    // normal column.
    for (bool key : {true, false}) {
        TableSchema s("one_byte", {{"b", 1, ColType::Char, key}});
        roundTrip(s, 4, 0.75, 32);
    }
}

TEST(RowCodecEdges, AllKeyColumnsMatchNaiveFragmentCount)
{
    TableSchema s("all_keys", {{"a", 2, ColType::Int, false},
                               {"b", 9, ColType::Char, false},
                               {"c", 4, ColType::Int, false}});
    s.setAllKeys();
    const auto layout = compactAligned(s, 4, 0.75);
    const RowCodec codec(layout, BlockCirculant(4));
    // Every column indivisible: exactly one fragment per column.
    EXPECT_EQ(codec.fragmentsPerRow(), s.columnCount());
    roundTrip(s, 4, 0.75, 8);
}

} // namespace
} // namespace pushtap::format
