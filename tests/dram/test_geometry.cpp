#include <gtest/gtest.h>

#include "dram/geometry.hpp"

namespace pushtap::dram {
namespace {

TEST(Geometry, DimmMatchesTable1)
{
    const auto g = Geometry::dimmDefault();
    EXPECT_EQ(g.channels, 4u);
    EXPECT_EQ(g.ranksPerChannel, 4u);
    EXPECT_EQ(g.devicesPerRank, 8u);
    EXPECT_EQ(g.banksPerDevice, 8u);
    EXPECT_EQ(g.rowsPerBank, 131072u);
    EXPECT_EQ(g.columnsPerRow, 1024u);
    EXPECT_EQ(g.interleaveGranularity, 8u);
    EXPECT_EQ(g.lineBytes, 64u);
    EXPECT_TRUE(g.stripedLines);
}

TEST(Geometry, DimmRankIs8GiB)
{
    const auto g = Geometry::dimmDefault();
    EXPECT_EQ(g.bytesPerRank(), 8ull << 30);
}

TEST(Geometry, DimmHas1024Banks)
{
    const auto g = Geometry::dimmDefault();
    EXPECT_EQ(g.banksPerRank(), 64u); // "64 per Rank" (Table 1)
    EXPECT_EQ(g.pimUnitCount(), 1024u);
}

TEST(Geometry, HbmKeepsSameBankCount)
{
    // Section 7.1: "The bank number of the HBM-based system is the
    // same as the DIMM-based system."
    EXPECT_EQ(Geometry::hbmDefault().totalBanks(),
              Geometry::dimmDefault().totalBanks());
}

TEST(Geometry, HbmCoarseGranularityUnstriped)
{
    const auto g = Geometry::hbmDefault();
    EXPECT_EQ(g.interleaveGranularity, 64u);
    EXPECT_FALSE(g.stripedLines);
    EXPECT_EQ(g.stripeDevices(), 1u);
}

TEST(Geometry, StripeDevicesOnDimm)
{
    EXPECT_EQ(Geometry::dimmDefault().stripeDevices(), 8u);
}

TEST(Geometry, CapacityFitsPaperDataset)
{
    // The CH tables occupy 20 GB (section 7.1); the PIM DRAM must fit
    // them.
    EXPECT_GT(Geometry::dimmDefault().totalBytes(), 20ull << 30);
}

} // namespace
} // namespace pushtap::dram
