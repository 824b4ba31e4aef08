#include <gtest/gtest.h>

#include "common/log.hpp"

#include <vector>

#include "format/generators.hpp"
#include "mvcc/defragmenter.hpp"
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

class DefragmenterTest : public ::testing::Test
{
  protected:
    DefragmenterTest()
        : schema(testSchema()),
          layout(format::compactAligned(schema, 4, 0.6)),
          circ(4, 8),
          store(layout, circ, 32, 64),
          vm(circ, 64, 32),
          defrag(Bandwidth::gbPerSec(100.0),
                 Bandwidth::gbPerSec(1000.0), 8)
    {}

    void
    update(RowId row, Timestamp ts, std::int64_t val)
    {
        const RowId slot = vm.allocDeltaSlot(row);
        std::vector<std::uint8_t> bytes(schema.rowBytes(), 0);
        bytes[0] = static_cast<std::uint8_t>(row);
        for (int i = 0; i < 4; ++i)
            bytes[4 + i] =
                static_cast<std::uint8_t>((val >> (8 * i)) & 0xff);
        store.writeRow(storage::Region::Delta, slot, bytes);
        vm.addVersion(row, slot, ts);
    }

    format::TableSchema schema;
    format::TableLayout layout;
    format::BlockCirculant circ;
    storage::TableStore store;
    VersionManager vm;
    Defragmenter defrag;
};

TEST_F(DefragmenterTest, NewestVersionsLandInDataRegion)
{
    update(3, 10, 100);
    update(3, 20, 200); // newer version of the same row
    update(7, 30, 300);

    const auto stats =
        defrag.run(store, vm, DefragStrategy::CpuOnly);
    EXPECT_EQ(stats.deltaRows, 3u);
    EXPECT_EQ(stats.rowsCopied, 2u); // rows 3 and 7
    EXPECT_EQ(stats.chainSteps, 3u); // chain of 2 + chain of 1

    EXPECT_EQ(store.columnValue(storage::Region::Data,
                                schema.columnId("v"), 3),
              200);
    EXPECT_EQ(store.columnValue(storage::Region::Data,
                                schema.columnId("v"), 7),
              300);
}

TEST_F(DefragmenterTest, ChainsClearedAndDeltaFreed)
{
    update(1, 10, 1);
    defrag.run(store, vm, DefragStrategy::CpuOnly);
    EXPECT_EQ(vm.deltaUsed(), 0u);
    EXPECT_FALSE(vm.hasVersions(1));
    EXPECT_EQ(store.deltaVisible().count(), 0u);
    EXPECT_TRUE(store.dataVisible().test(1));
}

TEST_F(DefragmenterTest, SnapshotAfterDefragConsistent)
{
    Snapshotter snap;
    update(2, 10, 77);
    snap.snapshot(store, vm, 50);
    defrag.run(store, vm, DefragStrategy::CpuOnly);
    snap.rewind();
    update(2, 60, 88);
    snap.snapshot(store, vm, 100);
    // The newest version must be the only visible copy of row 2.
    EXPECT_FALSE(store.dataVisible().test(2));
    EXPECT_EQ(store.deltaVisible().count(), 1u);
}

TEST_F(DefragmenterTest, Equation1CpuCost)
{
    // m*n + 2*n*p*d*w over the CPU bandwidth (100 GB/s).
    const auto t = defrag.commCpu(1000, 0.5, 20);
    const double bytes = 16.0 * 1000 + 2.0 * 1000 * 0.5 * 8 * 20;
    EXPECT_NEAR(t, bytes / 100.0, 1e-9);
}

TEST_F(DefragmenterTest, Equation2PimCost)
{
    const auto t = defrag.commPim(1000, 0.5, 20);
    const double mn = 16.0 * 1000;
    const double dmn = 8.0 * mn;
    const double move = 2.0 * 1000 * 0.5 * 8 * 20;
    EXPECT_NEAR(t, (mn + dmn) / 100.0 + (dmn + move) / 1000.0,
                1e-9);
}

TEST_F(DefragmenterTest, Equation3Crossover)
{
    // w* = (bP + bC) / (2 p (bP - bC)) * m.
    const double w_star = defrag.crossoverWidth(1.0);
    EXPECT_NEAR(w_star, (1000.0 + 100.0) / (2.0 * 900.0) * 16.0,
                1e-9);
    // Strategies agree with the crossover.
    EXPECT_EQ(defrag.pickStrategy(
                  static_cast<std::uint32_t>(w_star) + 2, 1.0),
              DefragStrategy::PimOnly);
    EXPECT_EQ(defrag.pickStrategy(
                  static_cast<std::uint32_t>(w_star) - 2, 1.0),
              DefragStrategy::CpuOnly);
}

TEST_F(DefragmenterTest, PaperExampleCrossover)
{
    // Section 5.3: m = 16, p ~ 1, bPIM : bCPU = 3 : 1 -> PIM wins
    // when w > 16.
    const Defragmenter d(Bandwidth::gbPerSec(100.0),
                         Bandwidth::gbPerSec(300.0), 8);
    EXPECT_NEAR(d.crossoverWidth(1.0), 16.0, 1e-9);
}

TEST_F(DefragmenterTest, CostsCrossAtEquation3Width)
{
    // Property: commCpu < commPim below the crossover, > above.
    const double w_star = defrag.crossoverWidth(1.0);
    const auto lo = static_cast<std::uint32_t>(w_star / 2);
    const auto hi = static_cast<std::uint32_t>(w_star * 2);
    EXPECT_LT(defrag.commCpu(1000, 1.0, lo),
              defrag.commPim(1000, 1.0, lo));
    EXPECT_GT(defrag.commCpu(1000, 1.0, hi),
              defrag.commPim(1000, 1.0, hi));
}

TEST_F(DefragmenterTest, HybridPicksByWidth)
{
    update(1, 10, 1);
    const auto stats =
        defrag.run(store, vm, DefragStrategy::Hybrid);
    // This table is narrow (w/device = 2 B): hybrid must pick CPU.
    EXPECT_EQ(stats.chosen, DefragStrategy::CpuOnly);
}

TEST_F(DefragmenterTest, BreakdownDominatedByCopy)
{
    // Fig. 11(d): data copy ~74%, chain traversal ~26%. Use a
    // CH-like table (a few key ints plus a wide char payload).
    format::TableSchema wide(
        "wide", {
                    {"k", 4, format::ColType::Int, true},
                    {"v", 8, format::ColType::Int, true},
                    {"payload", 64, format::ColType::Char, false},
                });
    const auto wlayout = format::compactAligned(wide, 4, 0.6);
    storage::TableStore wstore(wlayout, circ, 64, 64);
    VersionManager wvm(circ, 4096, 64);
    const Defragmenter wdefrag(Bandwidth::gbPerSec(100.0),
                               Bandwidth::gbPerSec(1000.0), 4);
    std::vector<std::uint8_t> bytes(wide.rowBytes(), 7);
    for (RowId r = 0; r < 40; ++r) {
        const RowId slot = wvm.allocDeltaSlot(r);
        wstore.writeRow(storage::Region::Delta, slot, bytes);
        wvm.addVersion(r, slot, 10 + r);
    }
    const auto stats =
        wdefrag.run(wstore, wvm, DefragStrategy::CpuOnly);
    EXPECT_GT(stats.breakdown.fraction("copy"), 0.5);
    EXPECT_GT(stats.breakdown.fraction("traverse"), 0.1);
}

TEST_F(DefragmenterTest, EmptyDeltaIsFree)
{
    const auto stats =
        defrag.run(store, vm, DefragStrategy::Hybrid);
    EXPECT_EQ(stats.rowsCopied, 0u);
    EXPECT_EQ(stats.timeNs, 0.0);
}

} // namespace
} // namespace pushtap::mvcc
