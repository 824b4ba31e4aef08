#include <gtest/gtest.h>

#include "common/log.hpp"

#include "htap/analytic_olap.hpp"
#include "htap/pushtap_db.hpp"
#include "support/engine_modes.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap {
namespace {

/**
 * End-to-end integration over the whole stack: the PushtapDB facade
 * driving transactions, snapshots, defragmentation and queries,
 * checked against the analytic baselines, a serial instance and the
 * row-store format.
 */
class EndToEnd : public ::testing::Test
{
  protected:
    static htap::PushtapOptions
    options()
    {
        htap::PushtapOptions opts;
        opts.database.scale = 0.0005;
        opts.database.blockRows = 64;
        opts.database.deltaFraction = 3.0;
        opts.database.insertHeadroom = 1.5;
        opts.defragInterval = 37; // deliberately odd
        return opts;
    }
};

TEST_F(EndToEnd, LongMixedRunStaysConsistent)
{
    // In every mode: with the result cache on, each round's Q6 is
    // served incrementally or, after a defrag pass, re-run in full.
    for (const auto &mode : testsupport::kEngineModes) {
        SCOPED_TRACE(mode.name);
        auto opts = options();
        opts.olap = mode.apply(opts.olap);
        htap::PushtapDB db(opts);
        std::int64_t last = 0;
        for (int round = 0; round < 8; ++round) {
            db.mixed(60);
            olap::QueryResult q6;
            const auto rep =
                db.runQuery(olap::plans::q6(0, 1LL << 60, 1, 10), &q6);
            const std::int64_t revenue = q6.rows[0].aggs[0];
            ASSERT_GT(revenue, last) << "round " << round;
            ASSERT_GT(rep.totalNs(), 0.0);
            last = revenue;
        }
        // Several defrag passes happened along the way.
        EXPECT_GT(db.oltpDefragPauseNs(), 0.0);
    }
}

TEST_F(EndToEnd, AllThreeQueriesAgreeAcrossDefrag)
{
    for (const auto &mode : testsupport::kEngineModes) {
        SCOPED_TRACE(mode.name);
        auto opts = options();
        opts.olap = mode.apply(opts.olap);
        htap::PushtapDB db(opts);
        db.mixed(80);

        olap::QueryResult q1a, q1b, q6a, q6b, q9a, q9b;
        db.runQuery(olap::plans::q1(workload::kDateBase), &q1a);
        db.runQuery(olap::plans::q6(0, 1LL << 60, 1, 10), &q6a);
        db.runQuery(olap::plans::q9(), &q9a);

        db.defragment();

        db.runQuery(olap::plans::q1(workload::kDateBase), &q1b);
        db.runQuery(olap::plans::q6(0, 1LL << 60, 1, 10), &q6b);
        db.runQuery(olap::plans::q9(), &q9b);

        EXPECT_EQ(q6a.rows[0].aggs[0], q6b.rows[0].aggs[0]);
        ASSERT_EQ(q1a.rows.size(), q1b.rows.size());
        for (std::size_t i = 0; i < q1a.rows.size(); ++i) {
            EXPECT_EQ(q1a.rows[i].aggs[1], q1b.rows[i].aggs[1]);
            EXPECT_EQ(q1a.rows[i].count, q1b.rows[i].count);
        }
        ASSERT_EQ(q9a.rows.size(), q9b.rows.size());
        for (std::size_t i = 0; i < q9a.rows.size(); ++i)
            EXPECT_EQ(q9a.rows[i].aggs[0], q9b.rows[i].aggs[0]);
    }
}

TEST_F(EndToEnd, BaselinesAndEngineAgreeOnScanScale)
{
    // The analytic Ideal baseline and the functional engine must
    // price the same Q6 within a sensible factor (the engine adds
    // fragmentation and bitmap costs).
    htap::PushtapDB db(options());
    const auto &geom = db.olap().config().geom;
    const htap::AnalyticOlapModel analytic(
        db.database(), geom, db.olap().config().timing,
        db.olap().config().pimConfig, db.olap().config().overheads);
    const auto ideal =
        analytic.runQuery(htap::BaselineKind::Ideal, olap::plans::q6(), 0);
    const auto rep = db.runQuery(olap::plans::q6(0, 1LL << 60, 1, 10));
    EXPECT_GT(rep.pimNs, 0.5 * ideal.pimNs);
    EXPECT_LT(rep.pimNs, 4.0 * ideal.pimNs);
}

TEST_F(EndToEnd, ParallelInstanceAgreesWithSerial)
{
    // The full facade at workers=4 must answer every executable CH
    // query exactly like a single-threaded instance, transaction
    // history and defrag passes included.
    auto ser_opts = options();
    ser_opts.olap.workers = 1;
    auto par_opts = options();
    par_opts.olap.workers = 4;
    htap::PushtapDB serial(ser_opts);
    htap::PushtapDB parallel(par_opts);
    serial.mixed(80);
    parallel.mixed(80);

    for (const auto &q : workload::chExecutablePlans()) {
        olap::QueryResult sres, pres;
        serial.runQuery(q.plan, &sres);
        parallel.runQuery(q.plan, &pres);
        ASSERT_EQ(sres.rows.size(), pres.rows.size())
            << q.plan.name;
        for (std::size_t i = 0; i < sres.rows.size(); ++i) {
            EXPECT_EQ(sres.rows[i].keys, pres.rows[i].keys)
                << q.plan.name;
            EXPECT_EQ(sres.rows[i].aggs, pres.rows[i].aggs)
                << q.plan.name;
            EXPECT_EQ(sres.rows[i].count, pres.rows[i].count)
                << q.plan.name;
        }
    }
}

TEST_F(EndToEnd, RowStoreAndUnifiedAgreeOnAnswers)
{
    // Different storage formats must never change query answers —
    // only their cost. (The line accounting differs; bytes do not.)
    auto opts = options();
    htap::PushtapDB unified(opts);
    opts.format = txn::InstanceFormat::RowStore;
    htap::PushtapDB rowstore(opts);

    unified.mixed(50);
    rowstore.mixed(50);

    olap::QueryResult ru, rr;
    unified.runQuery(olap::plans::q6(0, 1LL << 60, 1, 10), &ru);
    rowstore.runQuery(olap::plans::q6(0, 1LL << 60, 1, 10), &rr);
    EXPECT_EQ(ru.rows[0].aggs[0], rr.rows[0].aggs[0]);
}

} // namespace
} // namespace pushtap
