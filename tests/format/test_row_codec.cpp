#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "format/generators.hpp"
#include "format/row_codec.hpp"
#include "support/fragment_walk.hpp"

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

using testsupport::forEachFragment;
using testsupport::LaneBuffers;

/**
 * Scatter @p nrows random rows through @p codec's plans and through
 * the reference fragment walk into two regions filled alike: every
 * lane byte must match, padding included, and gather must return
 * each row.
 */
void
expectPlanMatchesFragmentWalk(const RowCodec &codec, RowId nrows,
                              std::uint64_t seed)
{
    const auto &layout = codec.layout();
    const auto &schema = layout.schema();
    LaneBuffers planned(layout, nrows, 0xEE), walked(layout, nrows, 0xEE);
    pushtap::Rng rng(seed);
    std::vector<std::vector<std::uint8_t>> rows;
    for (RowId r = 0; r < nrows; ++r) {
        std::vector<std::uint8_t> row(schema.rowBytes());
        for (auto &b : row)
            b = static_cast<std::uint8_t>(rng.below(256));
        codec.scatter(r, row, planned.lanes());
        walked.referenceScatter(layout, codec.circulant(), r, row);
        rows.push_back(std::move(row));
    }
    for (std::size_t l = 0; l < planned.laneCount(); ++l)
        ASSERT_EQ(planned.bytes(l), walked.bytes(l))
            << schema.name() << " lane " << l;
    for (RowId r = 0; r < nrows; ++r) {
        std::vector<std::uint8_t> out(schema.rowBytes(), 0);
        codec.gather(r, planned.lanes(), out);
        ASSERT_EQ(out, rows[r]) << schema.name() << " row " << r;
    }
}

class RowCodecTest : public ::testing::TestWithParam<double>
{
};

TEST_P(RowCodecTest, ScatterGatherRoundTrip)
{
    const auto s = paperCustomer();
    const auto layout = compactAligned(s, 4, GetParam());
    // B = 2 over 10 rows: every rotation class, twice over.
    expectPlanMatchesFragmentWalk(RowCodec(layout, BlockCirculant(4, 2)),
                                  10, 1);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, RowCodecTest,
                         ::testing::Values(0.0, 0.5, 0.75, 1.0));

TEST(RowCodec, CirculantRotationChangesDevices)
{
    const auto s = paperCustomer();
    const auto layout = compactAligned(s, 4, 0.75);
    const RowCodec codec(layout, BlockCirculant(4, 2));

    // Which device receives the (indivisible) w_id key bytes.
    const auto wid = s.columnId("w_id");
    const auto device = [&](RowId r) {
        for (const RowCopy &c : codec.plan(r))
            if (c.canonOffset == s.canonicalOffset(wid))
                return c.lane % layout.devices();
        ADD_FAILURE() << "w_id starts no copy of row " << r;
        return 0u;
    };
    // Fig. 5(b): block 1 is rotated by one device relative to block 0.
    EXPECT_EQ((device(0) + 1) % 4, device(2)); // different blocks (B = 2)
    EXPECT_EQ(device(0), device(1));           // one block
}

TEST(RowCodec, DeviceOffsetsAreRowStrided)
{
    const auto s = paperCustomer();
    const auto layout = compactAligned(s, 4, 0.75);
    const RowCodec codec(layout, BlockCirculant(4, 0));
    LaneBuffers region(layout, 2, 0);

    // Rows 0 and 1 of w_id sit one row width apart on one device.
    const auto wid = s.columnId("w_id");
    const auto &pl = layout.keyPlacement(wid);
    const auto w = layout.parts()[pl.part].rowWidth;
    codec.scatter(0, std::vector<std::uint8_t>(s.rowBytes(), 0x11),
                  region.lanes());
    codec.scatter(1, std::vector<std::uint8_t>(s.rowBytes(), 0x22),
                  region.lanes());
    const auto &lane = region.bytes(pl.part * layout.devices() + pl.slot);
    for (std::uint32_t b = 0; b < s.column(wid).width; ++b) {
        EXPECT_EQ(lane[pl.slotOffset + b], 0x11);
        EXPECT_EQ(lane[w + pl.slotOffset + b], 0x22);
    }
}

TEST(RowCodec, PlanMergesFragmentsContiguousInSlotAndRow)
{
    // Every threshold's plan: one copy per run of a slot's fragments
    // that also follow each other in the canonical row, the same
    // length in every rotation class, and every canonical byte
    // covered once.
    const auto s = paperCustomer();
    for (double th : {0.0, 0.5, 0.75, 1.0}) {
        const auto layout = compactAligned(s, 4, th);
        const RowCodec codec(layout, BlockCirculant(4, 2));
        const BlockCirculant circ(4, 2);
        std::size_t runs = 0;
        std::uint32_t prev_lane = ~0u, prev_end = 0;
        forEachFragment(layout, circ, 0,
                        [&](std::uint32_t lane, std::uint32_t,
                            std::uint32_t canon, std::uint32_t n) {
                            if (lane != prev_lane || canon != prev_end)
                                ++runs;
                            prev_lane = lane;
                            prev_end = canon + n;
                        });
        for (RowId r = 0; r < 8; r += 2) {
            const auto plan = codec.plan(r);
            EXPECT_EQ(plan.size(), runs) << th;
            std::vector<int> covered(s.rowBytes(), 0);
            for (const RowCopy &c : plan)
                for (std::uint32_t b = 0; b < c.bytes; ++b)
                    ++covered[c.canonOffset + b];
            EXPECT_EQ(covered, std::vector<int>(s.rowBytes(), 1)) << th;
        }
        EXPECT_LE(runs, codec.fragmentsPerRow());
    }
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
