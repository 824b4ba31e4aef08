#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "olap/result_cache.hpp"
#include "support/expect_rows.hpp"
#include "txn/tpcc_engine.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::olap {
namespace {

using testsupport::expectSameRows;
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
    cfg.blockRows = 64;
    cfg.deltaFraction = 3.0;
    cfg.insertHeadroom = 1.0;
    return cfg;
}

class ResultCachePropertyTest : public ::testing::Test
{
  protected:
    ResultCachePropertyTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, InstanceFormat::Unified, bw, timing, 37)
    {
        for (int i = 0; i < 40; ++i)
            oltp.executeMixed();
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
};

TEST_F(ResultCachePropertyTest, AllPlansByteIdenticalBothPaths)
{
    // The acceptance property: with the result cache on, every CH
    // plan's answer is byte-identical to a cold execution at the
    // same frontier, across three rounds shaped to exercise every
    // serve path — round 0 cold misses, round 1 (no intervening
    // writes) exact hits, round 2 (mixed txns + fresh snapshot)
    // delta-incremental for the append-only probes and full-run
    // fallback for plans whose builds moved. Swept with the
    // optimizer off and on: every serve keeps the cold run's
    // optimized flag, and each round-0 miss reports exactly what a
    // cache-off twin engine reports.
    for (const bool optimize : {false, true}) {
        SCOPED_TRACE(optimize ? "optimize" : "plain");
        auto cfg = OlapConfig::pushtapDimm();
        cfg.optimize = optimize;
        OlapEngine uncached(db, cfg);
        uncached.prepareSnapshot(db.now());
        cfg.resultCache = true;
        OlapEngine cached(db, cfg);
        cached.prepareSnapshot(db.now());

        bool saw_hit = false, saw_incremental = false;
        for (int round = 0; round < 3; ++round) {
            if (round == 2) {
                for (int i = 0; i < 30; ++i)
                    oltp.executeMixed();
                cached.prepareSnapshot(db.now());
            }
            for (const auto &q : workload::chExecutablePlans()) {
                const auto what =
                    q.plan.name + " round " + std::to_string(round);
                QueryResult rc;
                const auto rep = cached.runQuery(q.plan, &rc);
                // Cold ground truth at the very same frontier,
                // through the plain operator pipeline with no engine
                // state.
                auto ground = executePlan(db, q.plan);
                expectSameRows(rc.rows, ground.result.rows, what);
                EXPECT_EQ(rep.rowsVisible, ground.rowsVisible) << what;
                EXPECT_EQ(rep.name, q.plan.name) << what;
                EXPECT_EQ(rep.optimized, optimize) << what;
                if (round == 0) {
                    const auto twin = uncached.runQuery(q.plan);
                    EXPECT_DOUBLE_EQ(rep.pimNs, twin.pimNs) << what;
                    EXPECT_DOUBLE_EQ(rep.cpuNs, twin.cpuNs) << what;
                    EXPECT_DOUBLE_EQ(rep.cpuBlockedNs,
                                     twin.cpuBlockedNs)
                        << what;
                    EXPECT_DOUBLE_EQ(rep.pricedChosenNs,
                                     twin.pricedChosenNs)
                        << what;
                }
                if (round == 1) {
                    EXPECT_TRUE(rep.cacheHit) << what;
                }
                saw_hit = saw_hit || rep.cacheHit;
                saw_incremental =
                    saw_incremental || rep.incrementalRows > 0;
            }
        }

        // Both serve paths must actually run in this workload: exact
        // hits in round 1, and in round 2 the append-only OrderLine
        // probes (Q1/Q6) re-execute incrementally.
        EXPECT_TRUE(saw_hit);
        EXPECT_TRUE(saw_incremental);
        ASSERT_NE(cached.resultCache(), nullptr);
        EXPECT_GT(cached.resultCache()->hits, 0u);
        EXPECT_GT(cached.resultCache()->incrementals, 0u);
        EXPECT_GT(cached.resultCache()->misses, 0u);
    }
}

TEST_F(ResultCachePropertyTest, IncrementalScansOnlyTheDelta)
{
    auto cfg = OlapConfig::pushtapDimm();
    cfg.resultCache = true;
    OlapEngine cached(db, cfg);
    cached.prepareSnapshot(db.now());

    const QueryPlan &q1 = *workload::executableQueryPlan(1);
    QueryResult cold;
    const auto cold_rep = cached.runQuery(q1, &cold);
    EXPECT_FALSE(cold_rep.cacheHit);
    EXPECT_EQ(cold_rep.incrementalRows, 0u);

    // Only New-Order appends touch OrderLine; the re-execution must
    // charge and count just those appended rows.
    for (int i = 0; i < 8; ++i)
        oltp.executeNewOrder();
    cached.prepareSnapshot(db.now());
    QueryResult warm;
    const auto warm_rep = cached.runQuery(q1, &warm);
    EXPECT_FALSE(warm_rep.cacheHit);
    EXPECT_GT(warm_rep.incrementalRows, 0u);
    EXPECT_LT(warm_rep.incrementalRows, warm_rep.rowsVisible);
    EXPECT_GT(warm_rep.rowsVisible, cold_rep.rowsVisible);

    auto ground = executePlan(db, q1);
    expectSameRows(warm.rows, ground.result.rows, "q1 incremental");

    // The delta-only ScanCost pricing can never charge more PIM
    // streaming than the cold run over the full snapshot did.
    EXPECT_LE(warm_rep.pimNs, cold_rep.pimNs);
}

TEST_F(ResultCachePropertyTest, UpdatedProbeFallsBackToFullRun)
{
    auto cfg = OlapConfig::pushtapDimm();
    cfg.resultCache = true;
    OlapEngine cached(db, cfg);
    cached.prepareSnapshot(db.now());

    // STOCK takes in-place updates from New-Order, so a plan
    // probing it can never re-execute incrementally: the subset
    // test sees the cleared bit of every rewritten row.
    QueryPlan stock_scan;
    stock_scan.name = "stock_scan";
    stock_scan.probe.table = ChTable::Stock;
    stock_scan.aggregates = {
        {AggKind::Sum, {ColRef::kProbe, "s_quantity"}}};

    QueryResult cold;
    cached.runQuery(stock_scan, &cold);
    for (int i = 0; i < 8; ++i)
        oltp.executeNewOrder();
    cached.prepareSnapshot(db.now());

    QueryResult warm;
    const auto rep = cached.runQuery(stock_scan, &warm);
    EXPECT_FALSE(rep.cacheHit);
    EXPECT_EQ(rep.incrementalRows, 0u);
    auto ground = executePlan(db, stock_scan);
    expectSameRows(warm.rows, ground.result.rows, "stock fallback");
}

} // namespace
} // namespace pushtap::olap
