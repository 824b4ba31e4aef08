#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "format/generators.hpp"
#include "format/row_codec.hpp"

namespace pushtap::format {
namespace {

TableSchema
paperCustomer()
{
    return TableSchema(
        "customer",
        {
            {"id", 2, ColType::Int, true},
            {"d_id", 2, ColType::Int, true},
            {"w_id", 4, ColType::Int, true},
            {"zip", 9, ColType::Char, false},
            {"state", 2, ColType::Char, true},
            {"credit", 2, ColType::Char, false},
        });
}

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

class RowCodecTest : public ::testing::TestWithParam<double>
{
};

TEST_P(RowCodecTest, ScatterGatherRoundTrip)
{
    const auto s = paperCustomer();
    const auto layout = compactAligned(s, 4, GetParam());
    const RowCodec codec(layout, BlockCirculant(4, 2));
    FakeStore store;

    pushtap::Rng rng(1);
    std::vector<std::vector<std::uint8_t>> rows;
    for (RowId r = 0; r < 10; ++r) {
        std::vector<std::uint8_t> row(s.rowBytes());
        for (auto &b : row)
            b = static_cast<std::uint8_t>(rng.below(256));
        codec.scatter(r, row, store.writer());
        rows.push_back(std::move(row));
    }
    for (RowId r = 0; r < 10; ++r) {
        std::vector<std::uint8_t> out(s.rowBytes(), 0);
        codec.gather(r, store.reader(), out);
        EXPECT_EQ(out, rows[r]) << "row " << r;
    }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, RowCodecTest,
                         ::testing::Values(0.0, 0.5, 0.75, 1.0));

TEST(RowCodec, CirculantRotationChangesDevices)
{
    const auto s = paperCustomer();
    const auto layout = compactAligned(s, 4, 0.75);
    const RowCodec codec(layout, BlockCirculant(4, 2));
    FakeStore store;

    // Track which device receives the (indivisible) w_id key bytes.
    const auto &pl = layout.keyPlacement(s.columnId("w_id"));
    const auto w = layout.parts()[pl.part].rowWidth;
    std::vector<std::uint8_t> row(s.rowBytes(), 0xAB);
    std::map<RowId, std::uint32_t> key_device;
    for (RowId r : {RowId{0}, RowId{2}}) { // different blocks (B = 2)
        codec.scatter(
            r, row,
            [&](std::uint32_t part, std::uint32_t dev,
                std::uint64_t off, std::span<const std::uint8_t> d) {
                if (part == pl.part && d.size() == w &&
                    off == r * w)
                    key_device[r] = dev;
            });
    }
    // Fig. 5(b): block 1 is rotated by one device relative to block 0.
    ASSERT_EQ(key_device.size(), 2u);
    EXPECT_EQ((key_device[0] + 1) % 4, key_device[2]);
}

TEST(RowCodec, DeviceOffsetsAreRowStrided)
{
    const auto s = paperCustomer();
    const auto layout = compactAligned(s, 4, 0.75);
    const RowCodec codec(layout, BlockCirculant(4, 0));

    // Collect the w_id placement offset for rows 0 and 1.
    const auto wid = s.columnId("w_id");
    const auto &pl = layout.keyPlacement(wid);
    const auto w = layout.parts()[pl.part].rowWidth;

    std::vector<std::uint8_t> row(s.rowBytes(), 0);
    std::vector<std::uint64_t> offsets;
    for (RowId r = 0; r < 2; ++r) {
        codec.scatter(
            r, row,
            [&](std::uint32_t part, std::uint32_t dev,
                std::uint64_t off, std::span<const std::uint8_t>) {
                if (part == pl.part && dev == pl.slot &&
                    off % w == pl.slotOffset % w)
                    offsets.push_back(off);
            });
    }
    ASSERT_GE(offsets.size(), 2u);
    EXPECT_EQ(offsets[1] - offsets[0], w);
}

TEST(RowCodec, FragmentsPerRowCountsAllPieces)
{
    const auto s = paperCustomer();
    const auto compact = compactAligned(s, 4, 0.75);
    const auto naive = naiveAligned(s, 4);
    const RowCodec cc(compact, BlockCirculant(4));
    const RowCodec nc(naive, BlockCirculant(4));
    // Compact shreds zip, so it moves more fragments than naive's
    // one-per-column.
    EXPECT_EQ(nc.fragmentsPerRow(), s.columnCount());
    EXPECT_GT(cc.fragmentsPerRow(), nc.fragmentsPerRow() - 1);
}

} // namespace
} // namespace pushtap::format
