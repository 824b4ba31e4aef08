#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "olap/batch.hpp"
#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "support/expect_rows.hpp"
#include "txn/tpcc_engine.hpp"
#include "workload/query_catalog.hpp"
#include "workload/row_view.hpp"

namespace pushtap::olap {
namespace {

using storage::Region;
using txn::Database;
using txn::DatabaseConfig;
using txn::InstanceFormat;
using txn::TpccEngine;
using workload::ChTable;

DatabaseConfig
smallConfig()
{
    DatabaseConfig cfg;
    cfg.scale = 0.0002;
    // Morsels (2048 rows) span many 64-row circulant blocks, so the
    // stride path's per-block segmentation is exercised heavily.
    cfg.blockRows = 64;
    cfg.deltaFraction = 3.0;
    cfg.insertHeadroom = 1.0;
    return cfg;
}

// ---- selection-vector kernels ------------------------------------

SelectionVector
iota(std::uint32_t n)
{
    SelectionVector sel;
    for (std::uint32_t i = 0; i < n; ++i)
        sel.idx.push_back(i);
    return sel;
}

/** Copy out of the 64-byte-aligned vector for gtest comparisons. */
std::vector<std::uint32_t>
indices(const SelectionVector &sel)
{
    return {sel.idx.begin(), sel.idx.end()};
}

TEST(SelectionKernels, IntRangeKeepsInclusiveBounds)
{
    auto sel = iota(5);
    const std::vector<std::int64_t> vals = {-3, 0, 5, 9, 10};
    filterIntRange(vals, sel, 0, 9);
    EXPECT_EQ(indices(sel), (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(SelectionKernels, IntRangeEmptyWindowSelectsNothing)
{
    auto sel = iota(4);
    const std::vector<std::int64_t> vals = {1, 2, 3, 4};
    filterIntRange(vals, sel, 3, 2); // lo > hi
    EXPECT_TRUE(sel.empty());
}

TEST(SelectionKernels, IntRangeOnEmptySelectionIsANoop)
{
    SelectionVector sel;
    filterIntRange({}, sel, 0, 100);
    EXPECT_TRUE(sel.empty());
}

TEST(SelectionKernels, IntRangeFullKeepPreservesOrder)
{
    auto sel = iota(6);
    const std::vector<std::int64_t> vals = {5, 5, 5, 5, 5, 5};
    filterIntRange(vals, sel, 5, 5);
    EXPECT_EQ(sel.size(), 6u);
    for (std::uint32_t i = 0; i < 6; ++i)
        EXPECT_EQ(sel.idx[i], i);
}

TEST(SelectionKernels, CharPrefixMatchAndNegate)
{
    const std::uint32_t w = 4;
    // Payloads: "ORIG", "ORxx", "ORIG".
    const std::vector<std::uint8_t> chars = {'O', 'R', 'I', 'G',
                                             'O', 'R', 'x', 'x',
                                             'O', 'R', 'I', 'G'};
    auto sel = iota(3);
    filterCharPrefix(chars, w, sel, "ORI", false);
    EXPECT_EQ(indices(sel), (std::vector<std::uint32_t>{0, 2}));

    sel = iota(3);
    filterCharPrefix(chars, w, sel, "ORI", true);
    EXPECT_EQ(indices(sel), (std::vector<std::uint32_t>{1}));
}

TEST(SelectionKernels, CharPrefixLongerThanColumnNeverMatches)
{
    const std::uint32_t w = 2;
    const std::vector<std::uint8_t> chars = {'A', 'B', 'A', 'B'};
    auto sel = iota(2);
    filterCharPrefix(chars, w, sel, "ABC", false);
    EXPECT_TRUE(sel.empty());

    // ... so its negation keeps everything (substr semantics).
    sel = iota(2);
    filterCharPrefix(chars, w, sel, "ABC", true);
    EXPECT_EQ(sel.size(), 2u);
}

// ---- morsel iteration and visibility extraction ------------------

TEST(MorselVisibility, MatchesFindNextWalk)
{
    DatabaseConfig cfg = smallConfig();
    Database db(cfg);
    auto &store = db.table(ChTable::OrderLine).store();
    // Punch holes in the data visibility so morsels see partial
    // selections (boundary words included).
    auto &dv = store.dataVisible();
    for (std::size_t r = 0; r < dv.size(); r += 7)
        dv.clear(r);

    std::vector<RowId> expect;
    for (std::size_t r = dv.findNext(0); r < dv.size();
         r = dv.findNext(r + 1))
        expect.push_back(static_cast<RowId>(r));

    std::vector<RowId> got;
    SelectionVector sel;
    forEachMorsel(store, [&](const Morsel &m) {
        if (m.reg != Region::Data)
            return;
        EXPECT_LE(m.count, kMorselRows);
        visibleRows(store, m, sel);
        for (const auto off : sel.idx)
            got.push_back(m.base + off);
    });
    EXPECT_EQ(got, expect);
}

TEST(MorselVisibility, EmptyRegionYieldsEmptySelections)
{
    DatabaseConfig cfg = smallConfig();
    Database db(cfg);
    auto &store = db.table(ChTable::OrderLine).store();
    store.dataVisible().setAll(false);
    SelectionVector sel;
    forEachMorsel(store, [&](const Morsel &m) {
        visibleRows(store, m, sel);
        EXPECT_TRUE(sel.empty());
    });
}

// ---- batch decode vs whole-row reads -----------------------------

class BatchDecodeTest : public ::testing::Test
{
  protected:
    BatchDecodeTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, InstanceFormat::Unified, bw, timing, 17),
          engine(db, OlapConfig::pushtapDimm())
    {
        for (int i = 0; i < 30; ++i)
            oltp.executeMixed();
        engine.prepareSnapshot(db.now());
    }

    /** Every column of @p table decodes per morsel exactly as the
     *  canonical bytes of each visible row read it. */
    void
    expectAllColumnsMatch(ChTable table)
    {
        const auto &tbl = db.table(table);
        const auto &schema = tbl.schema();
        const auto &store = tbl.store();
        std::vector<std::uint8_t> row_buf(schema.rowBytes());
        const workload::ConstRowView row(schema, row_buf);
        for (const auto &col : schema.columns()) {
            const BatchColumnReader rd(store, col.name);
            const ColumnId id = schema.columnId(col.name);
            SelectionVector sel;
            ColumnBatch ints, chars;
            forEachMorsel(store, [&](const Morsel &m) {
                visibleRows(store, m, sel);
                if (col.type == format::ColType::Int) {
                    rd.gatherInts(m, sel.span(), ints);
                    ASSERT_EQ(ints.ints.size(), sel.size());
                }
                rd.gatherChars(m, sel.span(), chars);
                ASSERT_EQ(chars.chars.size(), sel.size() * col.width);
                for (std::size_t i = 0; i < sel.size(); ++i) {
                    const RowId r = m.base + sel.idx[i];
                    store.readRow(m.reg, r, row_buf);
                    if (col.type == format::ColType::Int) {
                        ASSERT_EQ(ints.ints[i], row.getInt(id))
                            << col.name << " row " << r;
                    }
                    ASSERT_EQ(std::memcmp(chars.chars.data() +
                                              i * col.width,
                                          row.getChars(id).data(),
                                          col.width),
                              0)
                        << col.name << " row " << r;
                }
            });
        }
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
    OlapEngine engine;
};

TEST_F(BatchDecodeTest, EveryColumnMatchesRowRead)
{
    expectAllColumnsMatch(ChTable::OrderLine);
    expectAllColumnsMatch(ChTable::Orders);
    expectAllColumnsMatch(ChTable::Item);
}

TEST_F(BatchDecodeTest, KeyColumnsUseTheStridePath)
{
    const auto &tbl = db.table(ChTable::OrderLine);
    // Key columns are unfragmented by construction, so the
    // zero-copy stride path must be available for them.
    for (const auto &col : tbl.schema().columns()) {
        if (col.isKey) {
            EXPECT_TRUE(BatchColumnReader(tbl.store(), col.name)
                            .strided())
                << col.name;
        }
    }
}

TEST(BatchDecodeFragmented, GatherFallbackMatchesRowRead)
{
    // With only Q1's columns as keys, most columns fragment: the
    // reader must fall back to the per-row gather with identical
    // values.
    auto cfg = smallConfig();
    cfg.olapQuerySubset = 1;
    Database db(cfg);
    const auto &tbl = db.table(ChTable::Orders);
    const auto &schema = tbl.schema();
    const auto &store = tbl.store();
    std::vector<std::uint8_t> row_buf(schema.rowBytes());
    const workload::ConstRowView row(schema, row_buf);

    bool saw_fragmented = false;
    for (const auto &col : schema.columns()) {
        const BatchColumnReader rd(store, col.name);
        saw_fragmented |= !rd.strided();
        if (col.type != format::ColType::Int)
            continue;
        const ColumnId id = schema.columnId(col.name);
        SelectionVector sel;
        ColumnBatch batch;
        forEachMorsel(store, [&](const Morsel &m) {
            visibleRows(store, m, sel);
            rd.gatherInts(m, sel.span(), batch);
            for (std::size_t i = 0; i < sel.size(); ++i) {
                store.readRow(m.reg, m.base + sel.idx[i], row_buf);
                ASSERT_EQ(batch.ints[i], row.getInt(id)) << col.name;
            }
        });
    }
    EXPECT_TRUE(saw_fragmented);
}

// ---- batch executor vs the reference executor --------------------

class BatchVsReferenceTest : public ::testing::Test
{
  protected:
    BatchVsReferenceTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, InstanceFormat::Unified, bw, timing, 7),
          engine(db, OlapConfig::pushtapDimm())
    {
        for (int i = 0; i < 40; ++i)
            oltp.executeMixed();
        engine.prepareSnapshot(db.now());
    }

    /** Run @p plan and compare it with the reference executor at
     *  this fresh snapshot, where every probe row is visible. */
    void
    checkedRun(const QueryPlan &plan, const std::string &what)
    {
        testsupport::expectReferenceAnswer(
            db, plan, executePlan(db, plan),
            testsupport::referenceExecute(db, plan), what);
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
    OlapEngine engine;
};

TEST_F(BatchVsReferenceTest, AllExecutablePlansMatch)
{
    for (const auto &q : workload::chExecutablePlans())
        checkedRun(q.plan, q.plan.name);
}

TEST_F(BatchVsReferenceTest, FusedPassEqualsUnfusedOnRandomPlans)
{
    // Property: the batch engine's fused filter+aggregate pass
    // (joins absent) and its joined pipeline both equal the
    // reference executor on randomized plans.
    Rng rng(20260725);
    for (int it = 0; it < 24; ++it) {
        QueryPlan p;
        const auto shape = rng.below(4);
        if (shape == 0) {
            // Q6-like fused scan, possibly empty/degenerate window.
            const auto lo =
                workload::kDateBase + rng.inRange(-500, 3000);
            p = plans::q6(lo, lo + rng.inRange(-10, 3000),
                          rng.inRange(0, 5), rng.inRange(3, 12));
        } else if (shape == 1) {
            // Q1-like fused grouped scan.
            p = plans::q1(workload::kDateBase +
                          rng.inRange(-100, 4000));
        } else if (shape == 2) {
            // Q19-like semi join with random ranges.
            p = plans::q19(rng.inRange(1, 4), rng.inRange(4, 9), 0,
                           0, rng.inRange(0, 4000),
                           rng.inRange(4000, 10000));
        } else {
            // Q14-like join, randomly flipped to its anti form.
            p = plans::q14(workload::kDateBase,
                           workload::kDateBase +
                               rng.inRange(0, 4000));
            if (rng.flip(0.5))
                p.joins[0].kind = JoinKind::Anti;
        }
        // std::string(..) + avoids the GCC 12 -Wrestrict false
        // positive on operator+(const char*, string&&) (PR 105651).
        p.name += std::string("#") + std::to_string(it);

        checkedRun(p, p.name);
    }
}

TEST_F(BatchVsReferenceTest, MinMaxAggregatesMatchAcrossExecutors)
{
    QueryPlan p;
    p.name = "minmax";
    p.probe.table = ChTable::OrderLine;
    p.aggregates = {{AggKind::Min, {ColRef::kProbe, "ol_amount"}},
                    {AggKind::Max, {ColRef::kProbe, "ol_amount"}},
                    {AggKind::Sum, {ColRef::kProbe, "ol_quantity"}}};
    checkedRun(p, p.name);

    // Grouped variant exercises per-group Min/Max seeding.
    p.groupBy = {{ColRef::kProbe, "ol_number"}};
    checkedRun(p, "minmax grouped");
}

} // namespace
} // namespace pushtap::olap
