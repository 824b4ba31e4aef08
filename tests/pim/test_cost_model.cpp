#include <gtest/gtest.h>

#include "memctrl/offload_costs.hpp"
#include "pim/cost_model.hpp"

namespace pushtap::pim {
namespace {

TEST(PimConfig, DefaultsMatchTable1)
{
    const auto c = PimConfig::upmemLike();
    EXPECT_DOUBLE_EQ(c.frequencyMHz, 500.0);
    EXPECT_EQ(c.tasklets, 16u);
    EXPECT_EQ(c.wramBytes, 64u * 1024);
    EXPECT_EQ(c.wireBits, 64u);
    EXPECT_DOUBLE_EQ(c.streamBandwidth.gbPerSecValue(), 1.0);
    EXPECT_DOUBLE_EQ(memctrl::kHandoverPerRankNs, 200.0);
}

TEST(PimConfig, LoadChunkIsHalfWram)
{
    EXPECT_EQ(PimConfig::upmemLike().loadChunkBytes(), 32u * 1024);
}

TEST(PimConfig, SixteenTaskletsSaturatePipeline)
{
    auto c = PimConfig::upmemLike();
    EXPECT_DOUBLE_EQ(c.instructionsPerSecond(), 500e6);
    c.tasklets = 8; // under-subscribed 11-stage pipeline
    EXPECT_LT(c.instructionsPerSecond(), 500e6);
}

TEST(CostModel, DmaTimeMatchesBandwidth)
{
    const CostModel m(PimConfig::upmemLike());
    // 32 kB at 1 GB/s = 32768 ns.
    EXPECT_DOUBLE_EQ(m.dmaTime(32 * 1024), 32768.0);
}

TEST(CostModel, ComputeTimeScalesWithElements)
{
    const CostModel m(PimConfig::upmemLike());
    const TimeNs t1 = m.computeTime(OpType::Filter, 1000);
    const TimeNs t2 = m.computeTime(OpType::Filter, 2000);
    EXPECT_DOUBLE_EQ(t2, 2.0 * t1);
}

TEST(CostModel, OperatorCostsOrdered)
{
    // Join > Hash > Group > Aggregation > Filter > LS.
    EXPECT_GT(CostModel::instructionsPerElement(OpType::Join),
              CostModel::instructionsPerElement(OpType::Hash));
    EXPECT_GT(CostModel::instructionsPerElement(OpType::Hash),
              CostModel::instructionsPerElement(OpType::Group));
    EXPECT_GT(CostModel::instructionsPerElement(OpType::Group),
              CostModel::instructionsPerElement(OpType::Aggregation));
    EXPECT_GT(
        CostModel::instructionsPerElement(OpType::Aggregation),
        CostModel::instructionsPerElement(OpType::Filter));
    EXPECT_EQ(CostModel::instructionsPerElement(OpType::LS), 0.0);
}

TEST(CostModel, HbmVariantFasterDma)
{
    const CostModel dimm(PimConfig::upmemLike());
    const CostModel hbm(PimConfig::hbmVariant());
    EXPECT_LT(hbm.dmaTime(1 << 20), dimm.dmaTime(1 << 20));
    // Calibrated to the paper's 2.1x defrag reduction.
    EXPECT_NEAR(dimm.dmaTime(1 << 20) / hbm.dmaTime(1 << 20), 2.1,
                1e-9);
}

} // namespace
} // namespace pushtap::pim
