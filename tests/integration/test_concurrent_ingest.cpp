#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
#include <thread>
#include <vector>

#include "olap/olap_engine.hpp"
#include "txn/txn_worker_group.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap {
namespace {

/**
 * OLAP under concurrent OLTP ingest: queries running while the
 * worker group is still committing must return byte-identical
 * results to a serial replay of the same schedule stopped at the
 * same commit frontier. This is the paper's HTAP consistency
 * contract (section 4.3) and the acceptance gate for the concurrent
 * front end.
 */
class ConcurrentIngest : public ::testing::Test
{
  protected:
    ConcurrentIngest()
        : bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200())
    {
    }

    static txn::DatabaseConfig
    config()
    {
        txn::DatabaseConfig cfg;
        cfg.scale = 0.0005;
        cfg.blockRows = 64;
        cfg.deltaFraction = 3.0;
        cfg.insertHeadroom = 1.5;
        return cfg;
    }

    std::unique_ptr<txn::TxnWorkerGroup>
    makeGroup(txn::Database &db, std::uint32_t workers)
    {
        txn::TxnWorkerGroupOptions opts;
        opts.workers = workers;
        return std::make_unique<txn::TxnWorkerGroup>(
            db, txn::InstanceFormat::Unified, bw, timing, opts);
    }

    static std::vector<olap::QueryResult>
    runAllPlans(olap::OlapEngine &olap)
    {
        std::vector<olap::QueryResult> out;
        for (const auto &q : workload::chExecutablePlans()) {
            olap::QueryResult res;
            olap.runQuery(q.plan, &res);
            out.push_back(std::move(res));
        }
        return out;
    }

    static void
    expectSameResults(const olap::QueryResult &a,
                      const olap::QueryResult &b, const char *what)
    {
        ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
        for (std::size_t i = 0; i < a.rows.size(); ++i) {
            EXPECT_EQ(a.rows[i].keys, b.rows[i].keys) << what;
            EXPECT_EQ(a.rows[i].aggs, b.rows[i].aggs) << what;
            EXPECT_EQ(a.rows[i].count, b.rows[i].count) << what;
        }
    }

    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
};

TEST_F(ConcurrentIngest, QueryDuringIngestMatchesSerialOracle)
{
    constexpr std::uint64_t kTxns = 360;
    constexpr Timestamp kMinFrontier = 120;

    // Concurrent side: four writers drain the schedule while the
    // analytical engine snapshots and queries mid-flight. The
    // analytical engine itself runs at workers=4 so the partitioned
    // parallel join builds, parallel subquery materialization and
    // per-table parallel snapshot all execute against live ingest
    // (and under TSan in CI).
    txn::Database par_db(config());
    auto group = makeGroup(par_db, 4);
    auto par_cfg = olap::OlapConfig::pushtapDimm();
    par_cfg.workers = 4;
    olap::OlapEngine par_olap(par_db, par_cfg);

    group->start(kTxns);
    Timestamp frontier = 0;
    while ((frontier = group->commitFrontier()) < kMinFrontier)
        std::this_thread::yield();
    // Everything at or below `frontier` has committed; later
    // transactions are still being applied while we query.
    par_olap.prepareSnapshot(frontier);
    olap::QueryResult mid_q1, mid_q6;
    par_olap.runQuery(*workload::executableQueryPlan(1), &mid_q1);
    par_olap.runQuery(*workload::executableQueryPlan(6), &mid_q6);
    group->finish();
    ASSERT_EQ(group->commitFrontier(), kTxns);

    par_olap.prepareSnapshot(kTxns);
    const auto par_final = runAllPlans(par_olap);

    // Serial oracle: one worker replays the identical schedule
    // (same seed, same descriptor stream) and stops at the
    // captured frontier before continuing to the end.
    txn::Database ser_db(config());
    auto oracle = makeGroup(ser_db, 1);
    oracle->run(frontier);
    olap::OlapEngine ser_olap(ser_db, olap::OlapConfig::pushtapDimm());
    ser_olap.prepareSnapshot(frontier);
    olap::QueryResult ref_q1, ref_q6;
    ser_olap.runQuery(*workload::executableQueryPlan(1), &ref_q1);
    ser_olap.runQuery(*workload::executableQueryPlan(6), &ref_q6);
    expectSameResults(mid_q1, ref_q1, "Q1 at mid-ingest frontier");
    expectSameResults(mid_q6, ref_q6, "Q6 at mid-ingest frontier");

    oracle->run(kTxns - frontier);
    ser_olap.prepareSnapshot(kTxns);
    const auto ser_final = runAllPlans(ser_olap);
    ASSERT_EQ(par_final.size(), ser_final.size());
    const auto &plans = workload::chExecutablePlans();
    for (std::size_t i = 0; i < par_final.size(); ++i)
        expectSameResults(par_final[i], ser_final[i],
                          plans[i].plan.name.c_str());
}

TEST_F(ConcurrentIngest, WorkerCountNeverChangesAnswers)
{
    // Same schedule drained by different worker counts must agree on
    // every executable CH query — including the insert-heavy tables
    // whose physical row order is scheduling-dependent.
    constexpr std::uint64_t kTxns = 240;
    txn::Database db2(config());
    auto g2 = makeGroup(db2, 2);
    g2->run(kTxns);
    olap::OlapEngine olap2(db2, olap::OlapConfig::pushtapDimm());
    olap2.prepareSnapshot(kTxns);
    const auto res2 = runAllPlans(olap2);

    txn::Database db4(config());
    auto g4 = makeGroup(db4, 4);
    g4->run(kTxns);
    olap::OlapEngine olap4(db4, olap::OlapConfig::pushtapDimm());
    olap4.prepareSnapshot(kTxns);
    const auto res4 = runAllPlans(olap4);

    ASSERT_EQ(res2.size(), res4.size());
    const auto &plans = workload::chExecutablePlans();
    for (std::size_t i = 0; i < res2.size(); ++i)
        expectSameResults(res2[i], res4[i],
                          plans[i].plan.name.c_str());
}

} // namespace
} // namespace pushtap
