#include <gtest/gtest.h>

/**
 * @file
 * Golden-value suite for the paper's Table 1 configuration. Every
 * constant here is transcribed from the paper; if a refactor silently
 * drifts the simulated hardware away from the evaluated system, this
 * suite fails CI. Derived quantities (total banks, PIM-unit counts,
 * capacities) are asserted from first principles so a change to any
 * single field is caught twice.
 */

#include "common/units.hpp"
#include "dram/geometry.hpp"
#include "dram/timing_params.hpp"
#include "memctrl/offload_costs.hpp"
#include "pim/pim_config.hpp"

namespace pushtap {
namespace {

TEST(PaperTable1, Ddr5TimingGoldenValues)
{
    const auto p = dram::TimingParams::ddr5_3200();
    EXPECT_EQ(p.name, "DDR5-3200");
    EXPECT_DOUBLE_EQ(p.tBURST, 2.5);
    EXPECT_DOUBLE_EQ(p.tRCD, 7.5);
    EXPECT_DOUBLE_EQ(p.tCL, 7.5);
    EXPECT_DOUBLE_EQ(p.tRP, 7.5);
    EXPECT_DOUBLE_EQ(p.tRAS, 16.3);
    EXPECT_DOUBLE_EQ(p.tRRD, 2.5);
    EXPECT_DOUBLE_EQ(p.tRFC, 121.9);
    EXPECT_DOUBLE_EQ(p.tWR, 15.0);
    EXPECT_DOUBLE_EQ(p.tWTR, 11.2);
    EXPECT_DOUBLE_EQ(p.tRTP, 3.75);
    EXPECT_DOUBLE_EQ(p.tRTW, 4.4);
    EXPECT_DOUBLE_EQ(p.tCS, 4.4);
    EXPECT_DOUBLE_EQ(p.tREFI, 3900.0);
}

TEST(PaperTable1, Hbm3TimingGoldenValues)
{
    const auto p = dram::TimingParams::hbm3();
    EXPECT_EQ(p.name, "HBM3-2Gbps");
    EXPECT_DOUBLE_EQ(p.tBURST, 2.0);
    EXPECT_DOUBLE_EQ(p.tRCD, 3.5);
    EXPECT_DOUBLE_EQ(p.tCL, 3.5);
    EXPECT_DOUBLE_EQ(p.tRP, 3.5);
    EXPECT_DOUBLE_EQ(p.tRAS, 8.5);
    EXPECT_DOUBLE_EQ(p.tRRD, 2.0);
    EXPECT_DOUBLE_EQ(p.tRFC, 175.0);
    EXPECT_DOUBLE_EQ(p.tWR, 4.0);
    EXPECT_DOUBLE_EQ(p.tWTR, 1.5);
    EXPECT_DOUBLE_EQ(p.tRTP, 1.0);
    EXPECT_DOUBLE_EQ(p.tRTW, 1.5);
    EXPECT_DOUBLE_EQ(p.tCS, 1.5);
    EXPECT_DOUBLE_EQ(p.tREFI, 2000.0);
}

TEST(PaperTable1, DimmGeometryGoldenValues)
{
    const auto g = dram::Geometry::dimmDefault();
    EXPECT_EQ(g.name, "DIMM-DDR5");
    EXPECT_EQ(g.channels, 4u);
    EXPECT_EQ(g.ranksPerChannel, 4u);
    EXPECT_EQ(g.devicesPerRank, 8u);
    EXPECT_EQ(g.banksPerDevice, 8u);
    EXPECT_EQ(g.rowsPerBank, 131072u);
    EXPECT_EQ(g.columnsPerRow, 1024u);
    EXPECT_EQ(g.interleaveGranularity, 8u); // 8 B DDR beat per device
    EXPECT_EQ(g.lineBytes, 64u);
    EXPECT_TRUE(g.stripedLines);

    // Derived: 4 ch x 4 ranks x (8 devices x 8 banks) = 1024 banks,
    // one UPMEM-like PIM unit per bank.
    EXPECT_EQ(g.banksPerRank(), 64u);
    EXPECT_EQ(g.totalBanks(), 1024u);
    EXPECT_EQ(g.pimUnitCount(), 1024u);
    // 128 MiB per bank -> 8 GiB per rank -> 128 GiB PIM DRAM.
    EXPECT_EQ(g.bytesPerBank(), 128u * kMiB);
    EXPECT_EQ(g.totalBytes(), 128ull * 1024 * kMiB);
    EXPECT_EQ(g.stripeDevices(), 8u);
}

TEST(PaperTable1, HbmGeometryGoldenValues)
{
    const auto g = dram::Geometry::hbmDefault();
    EXPECT_EQ(g.name, "HBM3");
    EXPECT_EQ(g.channels, 32u);
    EXPECT_EQ(g.ranksPerChannel, 1u);
    EXPECT_EQ(g.devicesPerRank, 2u);
    EXPECT_EQ(g.banksPerDevice, 16u);
    EXPECT_EQ(g.interleaveGranularity, 64u);
    EXPECT_FALSE(g.stripedLines);

    // Same PIM-unit population as the DIMM system: 32 x 2 x 16 = 1024.
    EXPECT_EQ(g.totalBanks(), 1024u);
    EXPECT_EQ(g.pimUnitCount(), 1024u);
    EXPECT_EQ(g.stripeDevices(), 1u);
}

TEST(PaperTable1, PimConfigGoldenValues)
{
    const auto c = pim::PimConfig::upmemLike();
    EXPECT_DOUBLE_EQ(c.frequencyMHz, 500.0);
    EXPECT_EQ(c.tasklets, 16u);
    EXPECT_EQ(c.wramBytes, 64u * kKiB);
    EXPECT_EQ(c.iramBytes, 24u * kKiB);
    EXPECT_EQ(c.wireBits, 64u);
    EXPECT_DOUBLE_EQ(c.streamBandwidth.gbPerSecValue(), 1.0);
    EXPECT_DOUBLE_EQ(memctrl::kHandoverPerRankNs, 200.0);
}

TEST(PaperTable1, PimDerivedQuantities)
{
    const auto c = pim::PimConfig::upmemLike();
    // Section 6.2: half of WRAM double-buffers the load phase.
    EXPECT_EQ(c.loadChunkBytes(), 32u * kKiB);
    // 16 tasklets saturate the 11-stage pipeline: 1 IPC at 500 MHz.
    EXPECT_DOUBLE_EQ(c.instructionsPerSecond(), 500e6);
    pim::PimConfig few = c;
    few.tasklets = 8;
    EXPECT_LT(few.instructionsPerSecond(), c.instructionsPerSecond());
}

TEST(PaperTable1, HbmPimVariantCalibration)
{
    // Section 7.3.2: HBM bank timing yields a 2.1x defragmentation
    // speedup, calibrated as per-unit stream bandwidth.
    const auto c = pim::PimConfig::hbmVariant();
    EXPECT_DOUBLE_EQ(c.streamBandwidth.gbPerSecValue(), 2.1);
    EXPECT_EQ(c.tasklets, pim::PimConfig::upmemLike().tasklets);
    EXPECT_EQ(c.wramBytes, pim::PimConfig::upmemLike().wramBytes);
}

} // namespace
} // namespace pushtap
