#include <gtest/gtest.h>

/**
 * @file
 * RowCodec edge cases added during build bring-up: tables with zero
 * rows (commit of an empty batch must not touch any device region)
 * and schemas at the width extremes (max-width Int columns, wide Char
 * columns, single-column tables) across the layout threshold range.
 */

#include <vector>

#include "common/rng.hpp"
#include "format/generators.hpp"
#include "format/row_codec.hpp"
#include "support/fragment_walk.hpp"

namespace pushtap::format {
namespace {

/**
 * Round-trip @p nrows random rows of @p schema at @p threshold, and
 * check the plan writes the bytes the fragment walk writes.
 */
void
roundTrip(TableSchema schema, std::uint32_t devices, double threshold,
          RowId nrows)
{
    const auto layout = compactAligned(schema, devices, threshold);
    const BlockCirculant circ(devices, 2);
    const RowCodec codec(layout, circ);
    testsupport::LaneBuffers planned(layout, nrows, 0xEE),
        walked(layout, nrows, 0xEE);

    pushtap::Rng rng(99);
    std::vector<std::vector<std::uint8_t>> rows;
    for (RowId r = 0; r < nrows; ++r) {
        std::vector<std::uint8_t> row(schema.rowBytes());
        for (auto &b : row)
            b = static_cast<std::uint8_t>(rng.below(256));
        codec.scatter(r, row, planned.lanes());
        walked.referenceScatter(layout, circ, r, row);
        rows.push_back(std::move(row));
    }
    for (std::size_t l = 0; l < planned.laneCount(); ++l)
        ASSERT_EQ(planned.bytes(l), walked.bytes(l)) << "lane " << l;
    for (RowId r = 0; r < nrows; ++r) {
        std::vector<std::uint8_t> out(schema.rowBytes(), 0);
        codec.gather(r, planned.lanes(), out);
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
