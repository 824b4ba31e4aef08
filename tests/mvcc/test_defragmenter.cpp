#include <gtest/gtest.h>

#include "common/log.hpp"

#include <algorithm>
#include <cstring>
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

/**
 * A defragmentation pass against the row-by-row copies it replaces:
 * two identical stores and version managers over @p devices devices
 * and 8-row blocks, where each entry of @p versions is one version
 * (data row, delta slots to burn before its own). One side runs
 * Defragmenter::run, which merges heads into run copies; the other
 * sweeps the same heads with one single-row copyDeltaToData each.
 * Data bytes, dictionary codes, visibility and DefragStats must
 * agree.
 */
class DefragRuns : public ::testing::Test
{
  protected:
    struct Version
    {
        RowId dataRow;
        std::uint32_t burn = 0; ///< Slots allocated and left unused.
    };

    struct Side
    {
        Side(const format::TableLayout &layout,
             const format::BlockCirculant &circ)
            : store(layout, circ, 64, 64), vm(circ, 64, 64)
        {
        }

        storage::TableStore store;
        VersionManager vm;
    };

    static format::TableSchema
    schema()
    {
        return format::TableSchema(
            "runs", {
                        {"k", 4, format::ColType::Int, true},
                        {"tag", 6, format::ColType::Char, false},
                        {"v", 8, format::ColType::Int, true},
                    });
    }

    /** Row bytes: k = @p k, tag one of four values (the fourth is
     *  not in the frozen dictionary), v = @p k * 7. */
    static std::vector<std::uint8_t>
    rowBytes(const format::TableSchema &s, std::uint64_t k)
    {
        static const char *const kTags[] = {"alpha", "beta", "gamma",
                                            "delta"};
        std::vector<std::uint8_t> row(s.rowBytes(), 0);
        const auto put = [&](const char *col, std::uint64_t v) {
            const ColumnId c = s.columnId(col);
            for (std::uint32_t b = 0; b < s.column(c).width; ++b)
                row[s.canonicalOffset(c) + b] =
                    static_cast<std::uint8_t>(v >> (8 * b));
        };
        put("k", k);
        put("v", k * 7);
        const char *tag = kTags[k % 4];
        std::memcpy(row.data() + s.canonicalOffset(s.columnId("tag")), tag,
                    std::strlen(tag));
        return row;
    }

    /** Populate @p side's data rows (three tags), freeze the
     *  dictionaries, then write @p versions through the allocator. */
    static void
    load(Side &side, const format::TableSchema &s,
         const std::vector<Version> &versions)
    {
        for (RowId r = 0; r < 64; ++r)
            side.store.writeRow(storage::Region::Data, r,
                                rowBytes(s, r % 3));
        side.store.buildDictionaries(8);
        Timestamp ts = 0;
        for (const Version &v : versions) {
            for (std::uint32_t b = 0; b < v.burn; ++b)
                side.vm.allocDeltaSlot(v.dataRow);
            const RowId slot = side.vm.allocDeltaSlot(v.dataRow);
            side.store.writeRow(storage::Region::Delta, slot,
                                rowBytes(s, 100 + ts));
            side.vm.addVersion(v.dataRow, slot, ++ts);
        }
    }

    /** Run both sides over @p versions and compare everything. */
    void
    expectRunsMatchRowCopies(std::uint32_t devices,
                             const std::vector<Version> &versions,
                             std::uint64_t want_runs_below_rows)
    {
        const auto s = schema();
        const auto layout = format::compactAligned(s, devices, 0.6);
        const format::BlockCirculant circ(devices, 8);
        Side runs(layout, circ), rows(layout, circ);
        load(runs, s, versions);
        load(rows, s, versions);

        const Defragmenter defrag(Bandwidth::gbPerSec(100.0),
                                  Bandwidth::gbPerSec(1000.0), devices);
        const DefragStats got =
            defrag.run(runs.store, runs.vm, DefragStrategy::Hybrid);

        // The row-by-row sweep, counting where runs would start.
        DefragStats want;
        want.deltaRows = rows.vm.deltaUsed();
        std::uint64_t run_starts = 0;
        RowId last_row = 0, last_slot = 0;
        want.chainSteps =
            rows.vm.forEachHead([&](RowId row, std::uint32_t head) {
                const RowId slot = rows.vm.versions()[head].deltaSlot;
                if (want.rowsCopied == 0 || row != last_row + 1 ||
                    slot != last_slot + 1 ||
                    circ.blockOf(row) != circ.blockOf(last_row) ||
                    circ.blockOf(slot) != circ.blockOf(last_slot))
                    ++run_starts;
                last_row = row;
                last_slot = slot;
                want.bytesMoved += rows.store.copyDeltaToData(slot, row, 1);
                ++want.rowsCopied;
                rows.store.dataVisible().set(row);
            });
        rows.store.deltaVisible().setAll(false);
        rows.vm.reset();

        EXPECT_EQ(got.deltaRows, want.deltaRows);
        EXPECT_EQ(got.rowsCopied, want.rowsCopied);
        EXPECT_EQ(got.chainSteps, want.chainSteps);
        EXPECT_EQ(got.bytesMoved, want.bytesMoved);
        // The case must hold runs that stop at block boundaries.
        EXPECT_EQ(want.rowsCopied - run_starts, want_runs_below_rows);
        for (std::uint32_t p = 0; p < layout.parts().size(); ++p)
            for (std::uint32_t d = 0; d < devices; ++d)
                EXPECT_TRUE(std::ranges::equal(
                    runs.store.partBytes(storage::Region::Data, p, d),
                    rows.store.partBytes(storage::Region::Data, p, d)))
                    << "part " << p << " device " << d;
        const ColumnId tag = s.columnId("tag");
        ASSERT_NE(runs.store.dictionary(tag), nullptr);
        EXPECT_TRUE(std::ranges::equal(runs.store.dictDataCodes(tag),
                                       rows.store.dictDataCodes(tag)));
        EXPECT_EQ(runs.store.dictFullyCoded(tag),
                  rows.store.dictFullyCoded(tag));
        EXPECT_FALSE(runs.store.dictFullyCoded(tag)); // "delta" missed
        EXPECT_EQ(runs.store.dataVisible().words(),
                  rows.store.dataVisible().words());
    }
};

TEST_F(DefragRuns, RunsStopAtBlockBoundariesOnEitherSide)
{
    // One device, so one rotation class: a run may meet a block
    // boundary on one side only. Slots come out of the allocator in
    // order (0, 1, 2, ...) and 8-row blocks.
    expectRunsMatchRowCopies(
        1, {
               // Data side: rows 6..9 cross into block 1 at row 8,
               // slots 2..5 stay in block 0.
               {6, 2}, {7}, {8}, {9},
               // Delta side: slots 6..9 cross at slot 8, rows
               // 18..21 stay in block 2.
               {18}, {19}, {20}, {21},
               // Both: rows 30..33 cross at 32, slots 14..17 at 16.
               {30, 4}, {31}, {32}, {33},
               // An update chain (row 40's head is its second
               // version) that the next row's head extends.
               {40}, {40}, {41},
               // Rows stepping by one whose slots do not.
               {50}, {51, 1},
           },
        // Rows that extend a run: 3 per crossing case less the break,
        // and row 41.
        2 + 2 + 2 + 1);
}

TEST_F(DefragRuns, RunsStopWhereBothRotationsChange)
{
    // Four devices: an inserted run crosses from block 1 into block 2
    // on both sides at once, where the rotation class changes.
    // Class 1's slots start at 8 and class 2's at 16.
    expectRunsMatchRowCopies(4,
                             {
                                 {14, 6}, {15}, // slots 14, 15
                                 {16}, {17},    // slots 16, 17
                             },
                             2);
}

} // namespace
} // namespace pushtap::mvcc
