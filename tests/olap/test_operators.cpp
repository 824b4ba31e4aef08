#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "support/expect_rows.hpp"
#include "txn/tpcc_engine.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::olap {
namespace {

using testsupport::expectSameRows;
using testsupport::referenceExecute;
using txn::Database;
using txn::DatabaseConfig;
using txn::InstanceFormat;
using txn::TpccEngine;

DatabaseConfig
smallConfig()
{
    DatabaseConfig cfg;
    cfg.scale = 0.0002;
    cfg.blockRows = 64;
    cfg.deltaFraction = 3.0;
    cfg.insertHeadroom = 1.0;
    return cfg;
}

/**
 * The core property: every executable plan's aggregates exactly
 * match the naive reference scan over the same snapshot, with
 * in-flight delta versions present.
 */
class OperatorPropertyTest : public ::testing::Test
{
  protected:
    OperatorPropertyTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, InstanceFormat::Unified, bw, timing, 11),
          engine(db, OlapConfig::pushtapDimm())
    {}

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
    OlapEngine engine;
};

TEST_F(OperatorPropertyTest, CleanDataMatchesReference)
{
    engine.prepareSnapshot(db.now());
    for (const auto &q : workload::chExecutablePlans()) {
        QueryResult res;
        engine.runQuery(q.plan, &res);
        expectSameRows(res.rows, referenceExecute(db, q.plan),
                       q.plan.name + " clean");
    }
}

TEST_F(OperatorPropertyTest, InFlightDeltasMatchReference)
{
    for (int i = 0; i < 40; ++i)
        oltp.executeMixed();
    ASSERT_GT(db.table(workload::ChTable::OrderLine)
                  .versions()
                  .deltaUsed(),
              0u);
    std::vector<std::vector<testsupport::RefRow>> want;
    for (const auto &q : workload::chExecutablePlans())
        want.push_back(referenceExecute(db, q.plan));
    engine.prepareSnapshot(db.now());
    std::size_t i = 0;
    for (const auto &q : workload::chExecutablePlans()) {
        QueryResult res;
        engine.runQuery(q.plan, &res);
        expectSameRows(res.rows, want[i++], q.plan.name + " deltas");
    }
}

TEST_F(OperatorPropertyTest, FrozenSnapshotIgnoresLaterCommits)
{
    const auto &plan = *workload::executableQueryPlan(12);
    for (int i = 0; i < 10; ++i)
        oltp.executeMixed();
    const auto frozen = db.now();
    engine.prepareSnapshot(frozen);

    QueryResult before;
    engine.runQuery(plan, &before);

    for (int i = 0; i < 10; ++i)
        oltp.executeMixed();

    engine.prepareSnapshot(frozen);
    QueryResult still;
    engine.runQuery(plan, &still);
    expectSameRows(still.rows, before.rows, "Q12 at the frozen ts");

    // Catching up to now() sees the new commits again.
    engine.prepareSnapshot(db.now());
    QueryResult fresh;
    engine.runQuery(plan, &fresh);
    expectSameRows(fresh.rows, referenceExecute(db, plan),
                   "Q12 after catch-up");
}

class OperatorTest : public ::testing::Test
{
  protected:
    OperatorTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, InstanceFormat::Unified, bw, timing, 3),
          engine(db, OlapConfig::pushtapDimm())
    {}

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
    OlapEngine engine;
};

TEST_F(OperatorTest, UngroupedEmptySelectionYieldsOneZeroRow)
{
    engine.prepareSnapshot(db.now());
    // An impossible delivery window selects nothing.
    QueryResult res;
    engine.runQuery(plans::q6(-2000, -1000, 1, 10), &res);
    ASSERT_EQ(res.rows.size(), 1u);
    EXPECT_TRUE(res.rows[0].keys.empty());
    EXPECT_EQ(res.rows[0].aggs, std::vector<std::int64_t>{0});
    EXPECT_EQ(res.rows[0].count, 0u);
}

TEST_F(OperatorTest, BoundaryQueryWindowsSelectNothing)
{
    engine.prepareSnapshot(db.now());
    // Degenerate windows the old imperative predicates accepted:
    // q6 over [d, d) and q1 above INT64_MAX return zero matches
    // instead of rejecting or overflowing.
    QueryResult q6;
    engine.runQuery(
        plans::q6(workload::kDateBase, workload::kDateBase, 1, 10),
        &q6);
    EXPECT_EQ(q6.rows[0].aggs[0], 0);

    QueryResult q1;
    engine.runQuery(
        plans::q1(std::numeric_limits<std::int64_t>::max()), &q1);
    EXPECT_TRUE(q1.rows.empty());
}

TEST_F(OperatorTest, AntiJoinMatchesReference)
{
    for (int i = 0; i < 20; ++i)
        oltp.executeMixed();

    // Revenue of order lines over non-ORIGINAL items: the anti form
    // of Q14's semi join.
    auto plan = plans::q14();
    plan.name = "Q14anti";
    plan.joins[0].kind = JoinKind::Anti;
    const auto want = referenceExecute(db, plan);
    auto semi = plans::q14();
    auto all = plans::q14();
    all.joins.clear();

    engine.prepareSnapshot(db.now());
    QueryResult res;
    engine.runQuery(plan, &res);
    expectSameRows(res.rows, want, "Q14 anti");

    // Semi + anti partitions the filtered probe rows exactly.
    QueryResult semi_res;
    engine.runQuery(semi, &semi_res);
    QueryResult all_res;
    engine.runQuery(all, &all_res);
    EXPECT_EQ(res.rows[0].count + semi_res.rows[0].count,
              all_res.rows[0].count);
    EXPECT_EQ(res.rows[0].aggs[0] + semi_res.rows[0].aggs[0],
              all_res.rows[0].aggs[0]);
}

TEST_F(OperatorTest, InnerJoinPayloadGroupingMatchesReference)
{
    for (int i = 0; i < 20; ++i)
        oltp.executeMixed();
    engine.prepareSnapshot(db.now());
    const auto &plan = *workload::executableQueryPlan(12);
    QueryResult res;
    engine.runQuery(plan, &res);
    expectSameRows(res.rows, referenceExecute(db, plan), "Q12");
    for (const auto &row : res.rows)
        EXPECT_GT(row.count, 0u);
}

TEST_F(OperatorTest, MinMaxAggregatesMatchDirectScan)
{
    // Min/Max seeding is checked against a hand-rolled scan (not
    // the reference executor, whose accumulation mirrors the spec).
    for (int i = 0; i < 20; ++i)
        oltp.executeMixed();

    QueryPlan p;
    p.name = "minmax";
    p.probe.table = workload::ChTable::OrderLine;
    p.aggregates = {{AggKind::Min, {ColRef::kProbe, "ol_amount"}},
                    {AggKind::Max, {ColRef::kProbe, "ol_amount"}}};

    auto &tbl = db.table(workload::ChTable::OrderLine);
    std::vector<std::uint8_t> buf(tbl.schema().rowBytes());
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = std::numeric_limits<std::int64_t>::min();
    for (RowId r = 0; r < tbl.usedDataRows(); ++r) {
        db.readNewest(workload::ChTable::OrderLine, r, buf);
        const auto v = workload::ConstRowView(tbl.schema(), buf)
                           .getInt("ol_amount");
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    engine.prepareSnapshot(db.now());
    QueryResult res;
    engine.runQuery(p, &res);
    ASSERT_EQ(res.rows.size(), 1u);
    EXPECT_EQ(res.rows[0].aggs[0], lo);
    EXPECT_EQ(res.rows[0].aggs[1], hi);
}

TEST_F(OperatorTest, Q12JoinMultiplicityIsExactlyOnePerLine)
{
    // Every orderline (seed or runtime-inserted) references exactly
    // one order under the composite (o_id, d_id, w_id) key — the
    // runtime o_id counters start above the seed range, so a wide-
    // open Q12 must count each visible line exactly once, never
    // against a colliding foreign order.
    for (int i = 0; i < 40; ++i)
        oltp.executeNewOrder();
    const auto wide =
        plans::q12(std::numeric_limits<std::int64_t>::min(),
                   std::numeric_limits<std::int64_t>::max(), 0, 9);
    engine.prepareSnapshot(db.now());
    QueryResult res;
    const auto rep = engine.runQuery(wide, &res);
    std::uint64_t total = 0;
    for (const auto &row : res.rows)
        total += row.count;
    EXPECT_EQ(total, rep.rowsVisible);
}

TEST_F(OperatorTest, SortAndLimitAppliedToQ3)
{
    engine.prepareSnapshot(db.now());
    QueryResult res;
    engine.runQuery(plans::q3(), &res);
    EXPECT_LE(res.rows.size(), 10u);
    for (std::size_t i = 1; i < res.rows.size(); ++i)
        EXPECT_GE(res.rows[i - 1].aggs[0], res.rows[i].aggs[0]);
}

TEST_F(OperatorTest, FragmentedColumnsFallBackToGatherPath)
{
    // With only Q1's columns marked as keys, Q12's o_carrier_id /
    // o_ol_cnt become normal (fragmentable) columns: the scanner
    // must gather fragments instead of the single-read fast path,
    // with identical results.
    auto cfg = smallConfig();
    cfg.olapQuerySubset = 1;
    Database frag_db(cfg);
    std::vector<std::vector<testsupport::RefRow>> want;
    for (const auto &q : workload::chExecutablePlans())
        want.push_back(referenceExecute(frag_db, q.plan));
    OlapEngine frag_engine(frag_db, OlapConfig::pushtapDimm());
    frag_engine.prepareSnapshot(frag_db.now());
    std::size_t i = 0;
    for (const auto &q : workload::chExecutablePlans()) {
        QueryResult res;
        frag_engine.runQuery(q.plan, &res);
        expectSameRows(res.rows, want[i++], q.plan.name + " fragmented");
    }
}

TEST_F(OperatorTest, ResultsSurviveDefragmentation)
{
    for (int i = 0; i < 60; ++i)
        oltp.executeMixed();
    engine.prepareSnapshot(db.now());
    const auto &plan = *workload::executableQueryPlan(3);
    QueryResult before;
    engine.runQuery(plan, &before);

    engine.runDefragmentation(mvcc::DefragStrategy::Hybrid);
    engine.prepareSnapshot(db.now());
    QueryResult after;
    engine.runQuery(plan, &after);

    ASSERT_EQ(before.rows.size(), after.rows.size());
    for (std::size_t i = 0; i < after.rows.size(); ++i) {
        EXPECT_EQ(before.rows[i].keys, after.rows[i].keys);
        EXPECT_EQ(before.rows[i].aggs, after.rows[i].aggs);
        EXPECT_EQ(before.rows[i].count, after.rows[i].count);
    }
}

} // namespace
} // namespace pushtap::olap
