#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "support/expect_rows.hpp"
#include "support/reference_executor.hpp"
#include "txn/tpcc_engine.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::olap {
namespace {

using testsupport::expectReferenceAnswer;
using testsupport::expectSameRows;
using testsupport::referenceExecute;
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
    // 64-row circulant blocks, far smaller than a morsel: every
    // morsel spans many rotation blocks, so the per-block stride
    // walk is exercised hard.
    cfg.blockRows = 64;
    cfg.deltaFraction = 3.0;
    cfg.insertHeadroom = 1.0;
    return cfg;
}

/** @p got reproduces the one-worker run @p want: answer, visible
 *  rows and ExecStats (each build's form). */
void
expectSameAsSerial(const PlanExecution &got, const PlanExecution &want,
                   const std::string &what)
{
    EXPECT_EQ(got.rowsVisible, want.rowsVisible) << what;
    expectSameRows(got.result.rows, want.result.rows, what);
    const ExecStats &gs = got.stats, &ws = want.stats;
    for (const auto &[g, w] : {std::pair{&gs.joinBuilds, &ws.joinBuilds},
                               std::pair{&gs.subqueryBuilds,
                                         &ws.subqueryBuilds}}) {
        ASSERT_EQ(g->size(), w->size()) << what;
        for (std::size_t i = 0; i < w->size(); ++i) {
            EXPECT_EQ((*g)[i].rows, (*w)[i].rows) << what;
            EXPECT_EQ((*g)[i].denseSlots, (*w)[i].denseSlots) << what;
        }
    }
}

/**
 * @p plans, plus a LIMIT-free copy of each plan with a LIMIT: the
 * copy materializes every merged group, not just the top ones.
 */
std::vector<QueryPlan>
withUnlimitedCopies(std::vector<QueryPlan> plans)
{
    const std::size_t n = plans.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (plans[i].limit == 0)
            continue;
        QueryPlan all = plans[i];
        all.name += " unlimited";
        all.limit = 0;
        plans.push_back(std::move(all));
    }
    return plans;
}

/**
 * The worker sweep of the acceptance criteria: every executable
 * catalog plan, workers {1, 2, 4, hardware} — answers byte-identical
 * to the reference executor, and answers (every merged group, through
 * the LIMIT-free copies) plus the ExecStats byte-identical to the
 * single-worker run.
 */
class ParallelExecTest : public ::testing::Test
{
  protected:
    ParallelExecTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, InstanceFormat::Unified, bw, timing, 29),
          engine(db, OlapConfig::pushtapDimm())
    {
        for (int i = 0; i < 40; ++i)
            oltp.executeMixed();
        engine.prepareSnapshot(db.now());
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
    OlapEngine engine;
};

TEST_F(ParallelExecTest, AllPlansMatchReferenceAcrossWorkers)
{
    std::vector<QueryPlan> catalog;
    for (const auto &q : workload::chExecutablePlans())
        catalog.push_back(q.plan);
    const auto plans = withUnlimitedCopies(std::move(catalog));
    ExecOptions serial;
    serial.morselRows = 256; // many morsels per table
    std::vector<PlanExecution> want;
    for (const auto &plan : plans) {
        want.push_back(executePlan(db, plan, serial));
        expectReferenceAnswer(db, plan, want.back(),
                              referenceExecute(db, plan),
                              plan.name + " w1");
    }
    const std::uint32_t hw = WorkerPool::hardwareWorkers();
    for (const std::uint32_t workers : {2u, 4u, hw}) {
        WorkerPool pool(workers);
        ExecOptions opts = serial;
        opts.workers = workers;
        opts.pool = &pool;
        for (std::size_t i = 0; i < plans.size(); ++i)
            expectSameAsSerial(
                executePlan(db, plans[i], opts), want[i],
                plans[i].name + " w" + std::to_string(workers));
    }
}

TEST_F(ParallelExecTest, EngineAnswersInvariantAcrossWorkers)
{
    // Through the engine: workers claim morsels — answers never
    // move.
    std::vector<std::vector<testsupport::RefRow>> want;
    for (const auto &q : workload::chExecutablePlans())
        want.push_back(referenceExecute(db, q.plan));
    for (const std::uint32_t workers :
         {1u, 2u, WorkerPool::hardwareWorkers()}) {
        auto cfg = OlapConfig::pushtapDimm();
        cfg.workers = workers;
        OlapEngine eng(db, cfg);
        eng.prepareSnapshot(db.now());
        std::size_t i = 0;
        for (const auto &q : workload::chExecutablePlans()) {
            QueryResult res;
            eng.runQuery(q.plan, &res);
            expectSameRows(res.rows, want[i++],
                           q.plan.name + " w" +
                               std::to_string(workers));
        }
    }
}

TEST_F(ParallelExecTest, MorselRowsSweepIsResultInvariant)
{
    WorkerPool pool(2);
    for (const auto &q : workload::chExecutablePlans()) {
        const auto want = referenceExecute(db, q.plan);
        for (const std::uint32_t morsel : {256u, 2048u, 8192u}) {
            ExecOptions opts;
            opts.workers = 2;
            opts.morselRows = morsel;
            opts.pool = &pool;
            expectReferenceAnswer(
                db, q.plan, executePlan(db, q.plan, opts), want,
                q.plan.name + " morsel " + std::to_string(morsel));
        }
    }
}

TEST_F(ParallelExecTest, EightColumnKeysMatchReference)
{
    // The widest keys validatePlan admits fill InlineKey to
    // capacity: a group-by, a semi self-join and an inner self-join,
    // each over eight ORDERLINE columns.
    static const char *const kCols[] = {
        "ol_w_id",   "ol_d_id",        "ol_o_id",
        "ol_number", "ol_i_id",        "ol_supply_w_id",
        "ol_delivery_d", "ol_quantity"};
    static_assert(std::size(kCols) == kMaxKeyColumns);
    std::vector<QueryPlan> wide(1);
    wide[0].name = "group_by_8";
    wide[0].probe.table = ChTable::OrderLine;
    for (const char *c : kCols)
        wide[0].groupBy.push_back({ColRef::kProbe, c});
    wide[0].aggregates = {
        {AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    for (const auto kind : {JoinKind::Semi, JoinKind::Inner}) {
        JoinSpec self;
        self.build.table = ChTable::OrderLine;
        self.build.intPredicates = {{"ol_number", 1, 5}};
        self.kind = kind;
        for (const char *c : kCols)
            self.keys.push_back({c, {ColRef::kProbe, c}});
        QueryPlan p;
        p.name = kind == JoinKind::Semi ? "semi_self_join_8"
                                        : "inner_self_join_8";
        p.probe.table = ChTable::OrderLine;
        p.groupBy = {{ColRef::kProbe, "ol_d_id"}};
        p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
        if (kind == JoinKind::Inner) {
            self.payload = {"ol_i_id"};
            p.aggregates.push_back({AggKind::Max, {0, "ol_i_id"}});
        }
        p.joins = {std::move(self)};
        wide.push_back(std::move(p));
    }
    WorkerPool pool(4);
    for (const auto &plan : wide) {
        const auto want = referenceExecute(db, plan);
        ASSERT_FALSE(want.empty()) << plan.name;
        for (const std::uint32_t workers : {1u, 4u})
            for (const std::uint32_t morsel : {64u, 2048u}) {
                ExecOptions opts;
                opts.workers = workers;
                opts.morselRows = morsel;
                opts.pool = workers > 1 ? &pool : nullptr;
                const auto what = plan.name + " w" +
                                  std::to_string(workers) + " m" +
                                  std::to_string(morsel);
                const auto got = executePlan(db, plan, opts);
                expectReferenceAnswer(db, plan, got, want, what);
                // Eight columns span far more slots than the build
                // has rows: the self-join builds hash, so the
                // GroupTable placements keep a plan that reaches them.
                for (const auto &b : got.stats.joinBuilds) {
                    EXPECT_GT(b.rows, 0u) << what;
                    EXPECT_EQ(b.denseSlots, 0u) << what;
                }
            }
    }
}

/**
 * The cases the flat group tables and the dense-array merge exist
 * for, at a scale where they are real: Q11/Q17/Q20 group tens of
 * thousands of keys (Q11 in the probe, Q17/Q20 in their subquery
 * pre-passes), a grouped plan whose workers' dense aggregators see
 * key ranges that cannot share one dense domain, and a LIMIT cut
 * through tied aggregates. Each runs at one worker and at {2, 4,
 * hardware} workers; answers match the reference executor, and
 * answers and stats match the single-worker run (every merged group
 * too, through a LIMIT-free copy of each plan with a LIMIT).
 */
class HighCardinalityTest : public ::testing::Test
{
  protected:
    /** One database for the whole suite: read-only after set-up. */
    struct Env
    {
        static DatabaseConfig
        config()
        {
            auto cfg = smallConfig();
            cfg.scale = 0.001; // 20k stock rows and items, 60k lines
            return cfg;
        }

        Env()
            : db(config()),
              bw(8, 8, true),
              timing(dram::Geometry::dimmDefault(),
                     dram::TimingParams::ddr5_3200()),
              oltp(db, InstanceFormat::Unified, bw, timing, 37)
        {
            for (int i = 0; i < 40; ++i)
                oltp.executeMixed();
            OlapEngine(db, OlapConfig::pushtapDimm())
                .prepareSnapshot(db.now());
        }

        Database db;
        format::BandwidthModel bw;
        dram::BatchTimingModel timing;
        TpccEngine oltp;
    };

    static void SetUpTestSuite() { env_ = std::make_unique<Env>(); }
    static void TearDownTestSuite() { env_.reset(); }

    /** Run @p plan, and its LIMIT-free copy when it has a LIMIT, at
     *  every worker count; returns the serial run of @p plan. */
    static PlanExecution
    sweep(const QueryPlan &plan)
    {
        if (plan.limit != 0)
            sweep(withUnlimitedCopies({plan}).back());
        Database &db = env_->db;
        ExecOptions serial;
        serial.morselRows = 1024;
        auto want = executePlan(db, plan, serial);
        expectReferenceAnswer(db, plan, want,
                              referenceExecute(db, plan),
                              plan.name + " w1");
        for (const std::uint32_t workers :
             {2u, 4u, WorkerPool::hardwareWorkers()}) {
            WorkerPool pool(workers);
            ExecOptions opts = serial;
            opts.workers = workers;
            opts.pool = &pool;
            expectSameAsSerial(executePlan(db, plan, opts), want,
                               plan.name + " w" +
                                   std::to_string(workers));
        }
        return want;
    }

    static inline std::unique_ptr<Env> env_;
};

TEST_F(HighCardinalityTest, Q11Q17Q20MatchAcrossWorkers)
{
    for (const int n : {11, 17, 20})
        sweep(*workload::executableQueryPlan(n));
    // Q11's grouping outgrows any dense domain: the group table ran.
    auto q11 = *workload::executableQueryPlan(11);
    q11.limit = 0;
    EXPECT_GT(executePlan(env_->db, q11).result.rows.size(), 10'000u);
}

TEST_F(HighCardinalityTest, CatalogBuildsAreDirectAddressed)
{
    // Every join build and subquery pre-pass of the 22 catalog plans
    // collects rows over a TPC-C id domain small enough to address
    // directly, at one worker and at four.
    WorkerPool pool(4);
    for (const std::uint32_t workers : {1u, 4u}) {
        ExecOptions opts;
        opts.workers = workers;
        opts.pool = workers > 1 ? &pool : nullptr;
        for (const auto &q : workload::chExecutablePlans()) {
            const auto stats = executePlan(env_->db, q.plan, opts).stats;
            const auto what = q.plan.name + " w" + std::to_string(workers);
            ASSERT_EQ(stats.joinBuilds.size(), q.plan.joins.size()) << what;
            ASSERT_EQ(stats.subqueryBuilds.size(),
                      q.plan.subqueries.size())
                << what;
            for (std::size_t k = 0; k < stats.joinBuilds.size(); ++k) {
                EXPECT_GT(stats.joinBuilds[k].rows, 0u) << what << k;
                EXPECT_GT(stats.joinBuilds[k].denseSlots, 0u)
                    << what << " join " << k;
            }
            for (const auto &b : stats.subqueryBuilds) {
                EXPECT_GT(b.rows, 0u) << what;
                EXPECT_GT(b.denseSlots, 0u) << what << " subquery";
            }
        }
    }
}

TEST_F(HighCardinalityTest, DisjointDenseKeyRangesMerge)
{
    // Grouped on ol_o_id (ascending with the row id), keeping two
    // order-id clusters ~5000 apart: a worker whose morsels fall in
    // one cluster keeps a dense domain under 4096 keys, the union of
    // two such workers does not, and a worker spanning both spills
    // mid-probe. Whichever way the morsels are claimed, the answer
    // cannot move.
    using namespace ex;
    QueryPlan p;
    p.name = "disjoint_dense";
    p.probe.table = ChTable::OrderLine;
    p.probe.exprPredicates = {
        or_(le(col("ol_o_id"), lit(400)), ge(col("ol_o_id"), lit(5400)))};
    p.groupBy = {{ColRef::kProbe, "ol_o_id"}};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}},
                    {AggKind::Min, {ColRef::kProbe, "ol_quantity"}},
                    {AggKind::Max, {ColRef::kProbe, "ol_i_id"}}};
    // No ORDER BY: the rows come out in ascending key order.
    const auto &rows = sweep(p).result.rows;
    EXPECT_GT(rows.size(), 500u);
    EXPECT_GT(rows.back().keys[0] - rows.front().keys[0], 4096);
}

TEST_F(HighCardinalityTest, LimitThroughTiedAggregates)
{
    // MAX(ol_quantity) per item tops out at 10 for most items: the
    // top-k must break the tie by ascending group key exactly like a
    // full sort followed by the LIMIT cut.
    QueryPlan p;
    p.name = "tied_limit";
    p.probe.table = ChTable::OrderLine;
    p.groupBy = {{ColRef::kProbe, "ol_i_id"}};
    p.aggregates = {{AggKind::Max, {ColRef::kProbe, "ol_quantity"}}};
    p.orderBy = {{SortKey::Target::Aggregate, 0, true}};
    p.limit = 25;
    const auto serial = sweep(p);
    ASSERT_EQ(serial.result.rows.size(), 25u);
    for (const auto &row : serial.result.rows)
        EXPECT_EQ(row.aggs[0], 10);
    for (std::size_t i = 1; i < serial.result.rows.size(); ++i)
        EXPECT_LT(serial.result.rows[i - 1].keys[0],
                  serial.result.rows[i].keys[0]);

    // The same cut ordered by count, ascending, over a two-column
    // key: ties again resolve by the whole key.
    p.name = "tied_limit_count";
    p.groupBy = {{ColRef::kProbe, "ol_w_id"},
                 {ColRef::kProbe, "ol_i_id"}};
    p.orderBy = {{SortKey::Target::Count, 0, false}};
    sweep(p);
}

TEST(ExecOptionsValidation, RejectsBadKnobs)
{
    const Database db(smallConfig());
    const auto plan = plans::q6();
    ExecOptions opts;
    opts.morselRows = 1536; // not a power of two
    EXPECT_THROW(executePlan(db, plan, opts), FatalError);
    opts.morselRows = 0;
    EXPECT_THROW(executePlan(db, plan, opts), FatalError);
}

TEST(OlapConfigValidation, DefaultsResolveAtConstruction)
{
    Database db(smallConfig());
    const OlapEngine engine(db, OlapConfig::pushtapDimm());
    EXPECT_EQ(engine.config().workers, WorkerPool::hardwareWorkers());
}

/**
 * Pricing invariants of the worker count, against the golden serial
 * engine.
 */
class WorkerPricingTest : public ::testing::Test
{
  protected:
    WorkerPricingTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, InstanceFormat::Unified, bw, timing, 11)
    {
        for (int i = 0; i < 30; ++i)
            oltp.executeMixed();
    }

    OlapConfig
    config(std::uint32_t workers) const
    {
        auto cfg = OlapConfig::pushtapDimm();
        cfg.workers = workers;
        return cfg;
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
};

TEST_F(WorkerPricingTest, DecompositionUnchangedByWorkers)
{
    // Golden invariance: workers are host-side only, so the engine
    // must reproduce every decomposition bit-for-bit no matter how
    // many threads drained the morsels — and answer exactly like
    // the reference executor.
    OlapEngine golden(db, config(1));
    OlapEngine parallel(db, config(4));
    for (const auto &q : workload::chExecutablePlans()) {
        golden.prepareSnapshot(db.now());
        parallel.prepareSnapshot(db.now());
        QueryResult gres, pres;
        const auto grep = golden.runQuery(q.plan, &gres);
        const auto prep = parallel.runQuery(q.plan, &pres);
        EXPECT_DOUBLE_EQ(prep.pimNs, grep.pimNs) << q.plan.name;
        EXPECT_DOUBLE_EQ(prep.cpuNs, grep.cpuNs) << q.plan.name;
        EXPECT_DOUBLE_EQ(prep.cpuBlockedNs, grep.cpuBlockedNs)
            << q.plan.name;
        EXPECT_EQ(prep.rowsVisible, grep.rowsVisible) << q.plan.name;
        expectSameRows(pres.rows, gres.rows, q.plan.name);
        expectSameRows(pres.rows, referenceExecute(db, q.plan),
                       q.plan.name);
    }
}

} // namespace
} // namespace pushtap::olap
