#include <gtest/gtest.h>

#include "common/log.hpp"

#include "htap/pushtap_db.hpp"

namespace pushtap::htap {
namespace {

PushtapOptions
smallOptions()
{
    PushtapOptions opts;
    opts.database.scale = 0.0002;
    opts.database.blockRows = 64;
    opts.database.deltaFraction = 3.0;
    opts.database.insertHeadroom = 1.0;
    opts.defragInterval = 50;
    return opts;
}

class PushtapDbTest : public ::testing::Test
{
  protected:
    PushtapDB db{smallOptions()};
};

TEST_F(PushtapDbTest, QuickstartFlow)
{
    db.mixed(20);
    olap::QueryResult q6;
    const auto rep = db.runQuery(olap::plans::q6(0, 1LL << 60, 1, 10), &q6);
    EXPECT_GT(q6.rows[0].aggs[0], 0);
    EXPECT_GT(rep.totalNs(), 0.0);
    EXPECT_GT(rep.consistencyNs, 0.0); // snapshot charged
}

TEST_F(PushtapDbTest, FreshnessAcrossQueries)
{
    PushtapDB fresh(smallOptions());
    olap::QueryResult r1, r2;
    fresh.runQuery(olap::plans::q6(0, 1LL << 60, 1, 10), &r1);
    fresh.newOrders(10);
    fresh.runQuery(olap::plans::q6(0, 1LL << 60, 1, 10), &r2);
    EXPECT_GT(r2.rows[0].aggs[0], r1.rows[0].aggs[0]);
}

TEST_F(PushtapDbTest, AutomaticDefragEveryInterval)
{
    EXPECT_EQ(db.oltpDefragPauseNs(), 0.0);
    db.mixed(120); // interval is 50
    EXPECT_GT(db.oltpDefragPauseNs(), 0.0);
    EXPECT_LT(db.transactionsSinceDefrag(), 50u);
}

TEST_F(PushtapDbTest, DefragKeepsResultsCorrect)
{
    PushtapDB defragged(smallOptions());
    olap::QueryResult before, after;
    defragged.mixed(60);
    defragged.runQuery(olap::plans::q6(0, 1LL << 60, 1, 10), &before);
    defragged.defragment();
    defragged.runQuery(olap::plans::q6(0, 1LL << 60, 1, 10), &after);
    EXPECT_EQ(before.rows[0].aggs[0], after.rows[0].aggs[0]);
}

TEST_F(PushtapDbTest, Q1AndQ9Run)
{
    db.mixed(10);
    olap::QueryResult q1rows;
    const auto q1 =
        db.runQuery(olap::plans::q1(workload::kDateBase), &q1rows);
    EXPECT_FALSE(q1rows.rows.empty());
    EXPECT_GT(q1.pimNs, 0.0);

    olap::QueryResult q9rows;
    const auto q9 = db.runQuery(olap::plans::q9(), &q9rows);
    EXPECT_GT(q9.pimNs, 0.0);
}

TEST_F(PushtapDbTest, DefragIntervalZeroDisables)
{
    auto opts = smallOptions();
    opts.defragInterval = 0;
    PushtapDB nodefrag(opts);
    nodefrag.mixed(100);
    EXPECT_EQ(nodefrag.oltpDefragPauseNs(), 0.0);
}

TEST_F(PushtapDbTest, OltpStatsAccumulate)
{
    db.mixed(25);
    EXPECT_EQ(db.oltp().stats().transactions, 25u);
    EXPECT_GT(db.oltp().stats().totalNs(), 0.0);
}

TEST_F(PushtapDbTest, RunQueryExecutesWiderChSuite)
{
    db.mixed(20);
    for (int n : {3, 4, 12, 14, 19}) {
        olap::QueryResult res;
        const auto rep = db.runQuery(n, &res);
        // std::string(..) + avoids the GCC 12 -Wrestrict false
        // positive on operator+(const char*, string&&) (PR 105651).
        EXPECT_EQ(rep.name, std::string("Q") + std::to_string(n))
            << "Q" << n;
        EXPECT_GT(rep.pimNs, 0.0) << "Q" << n;
        EXPECT_GT(rep.totalNs(), 0.0) << "Q" << n;
        EXPECT_GT(rep.rowsVisible, 0u) << "Q" << n;
    }
}

TEST_F(PushtapDbTest, RunQuerySnapshotsForFreshness)
{
    olap::QueryResult before;
    db.runQuery(14, &before);
    db.newOrders(10);
    olap::QueryResult after;
    const auto rep = db.runQuery(14, &after);
    EXPECT_GT(rep.consistencyNs, 0.0); // snapshot charged
    // Q14 is an ungrouped sum over ORDERLINE: new lines only add.
    ASSERT_EQ(after.rows.size(), 1u);
    EXPECT_GE(after.rows[0].count, before.rows[0].count);
}

TEST_F(PushtapDbTest, RunQueryAcceptsTheWholeCatalogRange)
{
    // Every CH query is executable now; only numbers outside the
    // catalog range are caller bugs.
    olap::QueryResult res;
    EXPECT_NO_THROW(db.runQuery(2, &res));
    EXPECT_NO_THROW(db.runQuery(22, &res));
    EXPECT_THROW(db.runQuery(0), pushtap::FatalError);
    EXPECT_THROW(db.runQuery(23), pushtap::FatalError);
}

TEST_F(PushtapDbTest, RunQueryAcceptsAdHocPlans)
{
    db.mixed(10);
    auto plan = olap::plans::q6(0, 1LL << 60, 1, 10);
    plan.name = "adhoc";
    olap::QueryResult res;
    const auto rep = db.runQuery(plan, &res);
    EXPECT_EQ(rep.name, "adhoc");
    ASSERT_EQ(res.rows.size(), 1u);
    EXPECT_GT(res.rows[0].aggs[0], 0);
}

// ---- Defragmentation attribution: forced and automatic passes
// ---- must charge the OLTP pause identically and never leak into
// ---- the next query's consistency share.

TEST_F(PushtapDbTest, ForcedDefragMatchesAutomaticAttribution)
{
    db.mixed(30);
    const auto pause_before = db.oltpDefragPauseNs();
    const TimeNs t = db.defragment();
    EXPECT_GT(t, 0.0);
    // The pass time lands in the OLTP pause exactly once.
    EXPECT_DOUBLE_EQ(db.oltpDefragPauseNs(), pause_before + t);
    // And the counter resets like the automatic path.
    EXPECT_EQ(db.transactionsSinceDefrag(), 0u);
}

TEST_F(PushtapDbTest, DefragNotChargedToQueryConsistency)
{
    db.mixed(30);
    const TimeNs pending_before =
        db.olap().pendingConsistencyNs();
    db.defragment();
    // Defragmentation itself adds nothing to the pending charge;
    // the next query pays only its snapshot.
    EXPECT_DOUBLE_EQ(db.olap().pendingConsistencyNs(),
                     pending_before);
    const auto rep = db.runQuery(olap::plans::q6(0, 1LL << 60, 1, 10));
    EXPECT_GT(rep.consistencyNs, 0.0); // its own snapshot
    // A second query without intervening work pays no residue.
    const auto rep2 = db.olap().runQuery(olap::plans::q14(), nullptr);
    EXPECT_EQ(rep2.consistencyNs, 0.0);
}

TEST_F(PushtapDbTest, ExplainDoesNotBillTheNextQuery)
{
    // EXPLAIN only describes the plan: it neither snapshots nor
    // prices, so the next query reports exactly what a twin database
    // that never explained reports.
    PushtapDB twin{smallOptions()};
    db.mixed(30);
    twin.mixed(30);
    const TimeNs pending = db.olap().pendingConsistencyNs();
    const std::string dump = db.explainQuery(9);
    EXPECT_NE(dump.find("plan Q9"), std::string::npos) << dump;
    EXPECT_EQ(db.olap().pendingConsistencyNs(), pending);
    const auto rep = db.runQuery(9);
    const auto want = twin.runQuery(9);
    EXPECT_GT(want.consistencyNs, 0.0);
    EXPECT_EQ(rep.consistencyNs, want.consistencyNs);
    EXPECT_EQ(rep.pimNs, want.pimNs);
}

TEST_F(PushtapDbTest, BackToBackForcedDefragDoesNotDoubleCount)
{
    db.mixed(30);
    const TimeNs first = db.defragment();
    const auto pause_after_first = db.oltpDefragPauseNs();
    // Nothing accumulated since: the second pass is near-empty and
    // adds only its own (fixed) cost, not the first pass's again.
    const TimeNs second = db.defragment();
    EXPECT_LT(second, first);
    EXPECT_DOUBLE_EQ(db.oltpDefragPauseNs(),
                     pause_after_first + second);
}

} // namespace
} // namespace pushtap::htap
