#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "olap/simd_kernels.hpp"
#include "support/expect_rows.hpp"
#include "support/reference_executor.hpp"
#include "txn/tpcc_engine.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::olap {
namespace {

using testsupport::expectSameRows;
using txn::Database;
using txn::DatabaseConfig;
using txn::InstanceFormat;
using txn::TpccEngine;

DatabaseConfig
smallConfig()
{
    DatabaseConfig cfg;
    cfg.scale = 0.0002;
    // 64-row blocks: circulant block boundaries land mid-morsel, so
    // the per-block stride segmentation of the build scans is
    // exercised.
    cfg.blockRows = 64;
    cfg.deltaFraction = 3.0;
    cfg.insertHeadroom = 1.0;
    return cfg;
}

/** Force the scalar reference kernels for one scope. */
struct ScalarGuard
{
    explicit ScalarGuard(bool on) { simd::forceScalarKernels(on); }
    ~ScalarGuard() { simd::forceScalarKernels(false); }
};

/**
 * Byte-identity of the partitioned parallel build phase: every
 * catalog plan with a join or subquery, swept across worker counts
 * against the reference executor.
 * In-flight deltas (transactions ingested after the snapshot) stay
 * in the delta region and stress the data-morsels-then-delta-morsels
 * stitch order.
 */
class ParallelBuildTest : public ::testing::Test
{
  protected:
    /** A catalog plan's answer at the snapshot: the reference rows
     *  and the probe table's visible-row count. */
    struct Expected
    {
        std::vector<testsupport::RefRow> rows;
        std::uint64_t rowsVisible = 0;
    };

    ParallelBuildTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, InstanceFormat::Unified, bw, timing, 31),
          engine(db, OlapConfig::pushtapDimm())
    {
        for (int i = 0; i < 40; ++i)
            oltp.executeMixed();
        engine.prepareSnapshot(db.now());
        // The reference reads the newest versions, so the answers at
        // the snapshot are taken before the in-flight commits below
        // (once: the population is deterministic).
        if (expected_.empty())
            for (const auto &q : workload::chExecutablePlans())
                expected_.push_back(
                    {testsupport::referenceExecute(db, q.plan),
                     db.table(q.plan.probe.table).usedDataRows()});
        // In-flight rows: invisible to the snapshot, present in the
        // delta region the build tasks walk.
        for (int i = 0; i < 10; ++i)
            oltp.executeMixed();
    }

    /** Expected answers of the catalog plans, in catalog order. */
    const std::vector<Expected> &
    want() const
    {
        return expected_;
    }

    static void
    expectAnswer(const PlanExecution &got, const Expected &want,
                 const std::string &what)
    {
        EXPECT_EQ(got.rowsVisible, want.rowsVisible) << what;
        expectSameRows(got.result.rows, want.rows, what);
    }

    static inline std::vector<Expected> expected_;

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
    OlapEngine engine;
};

TEST_F(ParallelBuildTest, BuildPlansMatchReferenceAcrossWorkers)
{
    const std::uint32_t hw = WorkerPool::hardwareWorkers();
    for (const std::uint32_t workers : {1u, 2u, 4u, hw}) {
        WorkerPool pool(workers);
        ExecOptions opts;
        opts.workers = workers;
        opts.morselRows = 256; // many morsels per build table
        opts.pool = &pool;
        std::size_t i = 0;
        for (const auto &q : workload::chExecutablePlans()) {
            const auto &w = want()[i++];
            if (q.plan.joins.empty() && q.plan.subqueries.empty())
                continue;
            expectAnswer(executePlan(db, q.plan, opts), w,
                         q.plan.name + " w" + std::to_string(workers));
        }
    }
}

TEST_F(ParallelBuildTest, ForcedScalarDispatchStaysByteIdentical)
{
    // Parallel builds must not depend on the SIMD kernels: force the
    // scalar reference kernels and sweep the aggressive corner.
    ScalarGuard g(true);
    WorkerPool pool(4);
    ExecOptions opts;
    opts.workers = 4;
    opts.morselRows = 256;
    opts.pool = &pool;
    std::size_t i = 0;
    for (const auto &q : workload::chExecutablePlans())
        expectAnswer(executePlan(db, q.plan, opts), want()[i++],
                     q.plan.name + " forced-scalar");
}

TEST_F(ParallelBuildTest, MorselRowsSweepIsBuildInvariant)
{
    WorkerPool pool(4);
    std::size_t i = 0;
    for (const auto &q : workload::chExecutablePlans()) {
        const auto &w = want()[i++];
        if (q.plan.joins.empty() && q.plan.subqueries.empty())
            continue;
        for (const std::uint32_t morsel : {64u, 2048u, 8192u}) {
            ExecOptions opts;
            opts.workers = 4;
            opts.morselRows = morsel;
            opts.pool = &pool;
            expectAnswer(
                executePlan(db, q.plan, opts), w,
                q.plan.name + " morsel " + std::to_string(morsel));
        }
    }
}

/**
 * Run @p plan at workers {1, 4} x morselRows {64, 2048} and compare
 * each answer with the reference executor (snapshot at db.now()),
 * which is returned.
 */
std::vector<testsupport::RefRow>
expectMatchesReference(Database &db, const QueryPlan &plan)
{
    const auto want = testsupport::referenceExecute(db, plan);
    WorkerPool pool(4);
    for (const std::uint32_t workers : {1u, 4u})
        for (const std::uint32_t morsel : {64u, 2048u}) {
            ExecOptions opts;
            opts.workers = workers;
            opts.morselRows = morsel;
            opts.pool = workers > 1 ? &pool : nullptr;
            expectSameRows(executePlan(db, plan, opts).result.rows,
                           want,
                           plan.name + " w" + std::to_string(workers) +
                               " m" + std::to_string(morsel));
        }
    return want;
}

TEST_F(ParallelBuildTest, BuildPredicateRejectingEveryRow)
{
    // An empty build side: semi keeps no probe row, anti keeps every
    // one, inner expands to nothing — with single- and multi-column
    // keys, grouped and ungrouped (the zero-count placeholder row).
    // The same cases run again beside a subquery whose source rejects
    // every row: its Sum and Min read 0 for every probe key, so a
    // predicate requiring both to be 0 keeps every row.
    engine.prepareSnapshot(db.now());
    const ColRef line_o{ColRef::kProbe, "ol_o_id"};
    const ColRef line_d{ColRef::kProbe, "ol_d_id"};
    const ColRef line_w{ColRef::kProbe, "ol_w_id"};
    for (const auto kind :
         {JoinKind::Semi, JoinKind::Anti, JoinKind::Inner})
        for (const bool multi : {false, true})
            for (const int variant : {0, 1, 2, 3}) {
                const bool grouped = (variant & 1) != 0;
                const bool subquery = (variant & 2) != 0;
                QueryPlan p;
                p.name = std::string("reject_all_k") +
                         std::to_string(static_cast<int>(kind)) +
                         (multi ? "_multi" : "_single") +
                         (grouped ? "_grouped" : "") +
                         (subquery ? "_subquery" : "");
                p.probe.table = workload::ChTable::OrderLine;
                if (subquery) {
                    using namespace ex;
                    SubquerySpec empty;
                    empty.source.table = workload::ChTable::Orders;
                    empty.source.intPredicates = {{"o_ol_cnt", -2, -1}};
                    empty.groupBy = {"o_id"};
                    empty.keys = {line_o};
                    if (multi) {
                        empty.groupBy.insert(empty.groupBy.end(),
                                             {"o_d_id", "o_w_id"});
                        empty.keys.insert(empty.keys.end(),
                                          {line_d, line_w});
                    }
                    empty.aggs = {{AggKind::Sum, col("o_ol_cnt")},
                                  {AggKind::Min, col("o_c_id")}};
                    p.subqueries = {std::move(empty)};
                    p.probe.exprPredicates = {
                        and_(eq(subq(0, 0), lit(0)),
                             eq(subq(0, 1), lit(0)))};
                }
                JoinSpec orders;
                orders.build.table = workload::ChTable::Orders;
                orders.build.intPredicates = {{"o_id", -2, -1}};
                orders.kind = kind;
                orders.keys = {{"o_id", line_o}};
                if (multi)
                    orders.keys.insert(orders.keys.end(),
                                       {{"o_d_id", line_d},
                                        {"o_w_id", line_w}});
                p.aggregates = {
                    {AggKind::Sum, {ColRef::kProbe, "ol_amount"}, {}}};
                if (kind == JoinKind::Inner) {
                    orders.payload = {"o_c_id"};
                    p.aggregates.push_back(
                        {AggKind::Max, {0, "o_c_id"}, {}});
                }
                p.joins = {std::move(orders)};
                if (grouped)
                    p.groupBy = {line_d};
                const auto want = expectMatchesReference(db, p);
                std::uint64_t rows = 0;
                for (const auto &r : want)
                    rows += r.count;
                if (kind == JoinKind::Anti)
                    EXPECT_GT(rows, 0u) << p.name;
                else
                    EXPECT_EQ(rows, 0u) << p.name;
                // Every empty build is dense with no slot.
                const auto stats = executePlan(db, p).stats;
                for (const auto &b : stats.joinBuilds) {
                    EXPECT_EQ(b.rows, 0u) << p.name;
                    EXPECT_EQ(b.denseSlots, 0u) << p.name;
                }
                for (const auto &b : stats.subqueryBuilds) {
                    EXPECT_EQ(b.rows, 0u) << p.name;
                    EXPECT_EQ(b.denseSlots, 0u) << p.name;
                }
            }
}

TEST_F(ParallelBuildTest, RepeatedInnerKeyFeedsPayloadKeyedJoin)
{
    // ORDERS keyed on o_d_id alone: ten keys, each with a long run of
    // tuples that every matching probe row expands into. The next
    // join keys on that join's payload (customer of the order), as
    // an inner, semi and anti join in turn.
    engine.prepareSnapshot(db.now());
    for (const auto kind :
         {JoinKind::Inner, JoinKind::Semi, JoinKind::Anti}) {
        QueryPlan p;
        p.name = std::string("repeated_key_then_k") +
                 std::to_string(static_cast<int>(kind));
        p.probe.table = workload::ChTable::OrderLine;
        p.probe.intPredicates = {{"ol_number", 1, 1},
                                 {"ol_o_id", 0, 40}};
        JoinSpec orders;
        orders.build.table = workload::ChTable::Orders;
        orders.kind = JoinKind::Inner;
        orders.keys = {{"o_d_id", {ColRef::kProbe, "ol_d_id"}}};
        orders.payload = {"o_c_id", "o_d_id", "o_id"};
        JoinSpec customers;
        customers.build.table = workload::ChTable::Customer;
        customers.kind = kind;
        customers.keys = {{"c_id", {0, "o_c_id"}},
                          {"c_d_id", {0, "o_d_id"}}};
        p.groupBy = {{0, "o_d_id"}};
        p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}, {}},
                        {AggKind::Sum, {0, "o_id"}, {}},
                        {AggKind::Max, {0, "o_c_id"}, {}}};
        if (kind == JoinKind::Inner) {
            customers.payload = {"c_balance"};
            p.aggregates.push_back({AggKind::Min, {1, "c_balance"}, {}});
        }
        p.joins = {std::move(orders), std::move(customers)};
        const auto want = expectMatchesReference(db, p);
        EXPECT_FALSE(want.empty()) << p.name;
    }
}

/**
 * Bit-identity of the parallel snapshot/defrag passes: the modelled
 * charges and merged stats fold serially in table order, so a
 * workers=4 engine must reproduce the workers=1 engine exactly.
 */
class ParallelMaintenanceTest : public ::testing::Test
{
  protected:
    /** Two identically-populated databases (same seed, same ops). */
    struct Instance
    {
        explicit Instance(std::uint32_t workers)
            : db(smallConfig()),
              bw(8, 8, true),
              timing(dram::Geometry::dimmDefault(),
                     dram::TimingParams::ddr5_3200()),
              oltp(db, InstanceFormat::Unified, bw, timing, 17),
              engine(db, config(workers))
        {
            for (int i = 0; i < 40; ++i)
                oltp.executeMixed();
        }

        static OlapConfig
        config(std::uint32_t workers)
        {
            auto cfg = OlapConfig::pushtapDimm();
            cfg.workers = workers;
            return cfg;
        }

        Database db;
        format::BandwidthModel bw;
        dram::BatchTimingModel timing;
        TpccEngine oltp;
        OlapEngine engine;
    };
};

TEST_F(ParallelMaintenanceTest, SnapshotChargeAndStatsBitIdentical)
{
    Instance serial(1), parallel(4);
    const auto ts = serial.db.now();
    ASSERT_EQ(ts, parallel.db.now());
    const auto t1 = serial.engine.prepareSnapshot(ts);
    const auto t4 = parallel.engine.prepareSnapshot(ts);
    EXPECT_DOUBLE_EQ(t4, t1);
    const auto &s1 = serial.engine.lastSnapshotStats();
    const auto &s4 = parallel.engine.lastSnapshotStats();
    EXPECT_EQ(s4.versionsScanned, s1.versionsScanned);
    EXPECT_EQ(s4.versionsSkipped, s1.versionsSkipped);
    EXPECT_EQ(s4.bitsFlipped, s1.bitsFlipped);
    EXPECT_EQ(s4.metadataBytesRead, s1.metadataBytesRead);
    EXPECT_EQ(s4.bitmapBytesWritten, s1.bitmapBytesWritten);
}

TEST_F(ParallelMaintenanceTest, DefragChargeStatsAndAnswersIdentical)
{
    Instance serial(1), parallel(4);
    serial.engine.prepareSnapshot(serial.db.now());
    parallel.engine.prepareSnapshot(parallel.db.now());
    const auto t1 = serial.engine.runDefragmentation(
        mvcc::DefragStrategy::Hybrid);
    const auto t4 = parallel.engine.runDefragmentation(
        mvcc::DefragStrategy::Hybrid);
    EXPECT_DOUBLE_EQ(t4, t1);
    const auto &d1 = serial.engine.lastDefragStats();
    const auto &d4 = parallel.engine.lastDefragStats();
    EXPECT_EQ(d4.deltaRows, d1.deltaRows);
    EXPECT_EQ(d4.rowsCopied, d1.rowsCopied);
    EXPECT_EQ(d4.chainSteps, d1.chainSteps);
    EXPECT_EQ(d4.bytesMoved, d1.bytesMoved);
    EXPECT_DOUBLE_EQ(d4.timeNs, d1.timeNs);
    EXPECT_DOUBLE_EQ(d4.breakdown.get("traverse"),
                     d1.breakdown.get("traverse"));
    EXPECT_DOUBLE_EQ(d4.breakdown.get("copy"),
                     d1.breakdown.get("copy"));

    // Post-defrag queries agree row for row.
    serial.engine.prepareSnapshot(serial.db.now());
    parallel.engine.prepareSnapshot(parallel.db.now());
    for (const auto &q : workload::chExecutablePlans()) {
        QueryResult r1, r4;
        serial.engine.runQuery(q.plan, &r1);
        parallel.engine.runQuery(q.plan, &r4);
        expectSameRows(r4.rows, r1.rows, q.plan.name);
    }
}

} // namespace
} // namespace pushtap::olap
