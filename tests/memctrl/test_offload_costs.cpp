#include <gtest/gtest.h>

#include "memctrl/offload_costs.hpp"

namespace pushtap::memctrl {
namespace {

class OffloadCostsTest : public ::testing::Test
{
  protected:
    dram::Geometry geom = dram::Geometry::dimmDefault();
    dram::TimingParams timing = dram::TimingParams::ddr5_3200();
};

TEST_F(OffloadCostsTest, OriginalSweepIsTensOfMicroseconds)
{
    // Section 2.1: invoking and polling thousands of units takes tens
    // of microseconds; per channel (256 units) a sweep must land in
    // the 10-100 us band.
    const auto ov = originalArchOverheads(geom);
    EXPECT_GT(ov.launchNs, 10'000.0);
    EXPECT_LT(ov.launchNs, 100'000.0);
    EXPECT_DOUBLE_EQ(ov.launchNs, ov.pollNs);
}

TEST_F(OffloadCostsTest, PushtapOrdersOfMagnitudeCheaper)
{
    const auto orig = originalArchOverheads(geom);
    const auto push = pushtapArchOverheads(geom, timing);
    EXPECT_LT(push.launchNs * 100, orig.launchNs);
    EXPECT_LT(push.pollNs * 10, orig.pollNs);
}

TEST_F(OffloadCostsTest, HandoverIsPhysicalAndShared)
{
    // The DRAM-side bank handover (0.2 us/rank, both directions) is
    // identical for both architectures.
    const auto orig = originalArchOverheads(geom);
    const auto push = pushtapArchOverheads(geom, timing);
    EXPECT_DOUBLE_EQ(orig.handoverNs, push.handoverNs);
    EXPECT_DOUBLE_EQ(push.handoverNs,
                     2.0 * 200.0 * geom.ranksPerChannel);
}

TEST_F(OffloadCostsTest, OriginalScalesWithUnitCount)
{
    auto big = geom;
    big.ranksPerChannel *= 2;
    const auto ov1 = originalArchOverheads(geom);
    const auto ov2 = originalArchOverheads(big);
    EXPECT_NEAR(ov2.launchNs, 2.0 * ov1.launchNs, 1e-6);
}

TEST_F(OffloadCostsTest, PushtapLaunchIsOneWrite)
{
    const auto push = pushtapArchOverheads(geom, timing);
    EXPECT_LT(push.launchNs, 50.0);
    EXPECT_GE(push.launchNs, timing.rowMissLatency());
}

} // namespace
} // namespace pushtap::memctrl
