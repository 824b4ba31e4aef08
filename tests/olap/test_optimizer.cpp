#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "olap/optimizer.hpp"
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

OlapConfig
optimizedConfig(std::uint32_t workers = 0)
{
    auto cfg = OlapConfig::pushtapDimm();
    cfg.optimize = true;
    cfg.workers = workers;
    return cfg;
}

/** Probe OrderLine through two semi joins: the huge STOCK build and
 *  the one-row WAREHOUSE build — hand-built in the bad order. */
QueryPlan
skewedTwoJoinPlan()
{
    QueryPlan p;
    p.name = "skewed2";
    p.probe.table = ChTable::OrderLine;

    JoinSpec stock;
    stock.build.table = ChTable::Stock;
    stock.kind = JoinKind::Semi;
    stock.keys = {{"s_w_id", {ColRef::kProbe, "ol_supply_w_id"}},
                  {"s_i_id", {ColRef::kProbe, "ol_i_id"}}};

    JoinSpec wh;
    wh.build.table = ChTable::Warehouse;
    wh.kind = JoinKind::Semi;
    wh.keys = {{"w_id", {ColRef::kProbe, "ol_w_id"}}};

    p.joins = {std::move(stock), std::move(wh)};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    return p;
}

// ---- Property suite: every CH plan -------------------------------

class OptimizerPropertyTest : public ::testing::Test
{
  protected:
    OptimizerPropertyTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, InstanceFormat::Unified, bw, timing, 29)
    {
        for (int i = 0; i < 40; ++i)
            oltp.executeMixed();
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
};

TEST_F(OptimizerPropertyTest, AllPlansByteIdenticalAndNeverPricedWorse)
{
    // The acceptance property: with `optimize` on, every executable
    // CH plan returns byte-identical results to the hand-built plan,
    // the priced cost of the chosen plan never exceeds the
    // hand-built plan's, and a second round over fresh in-flight
    // deltas re-optimizes from the observed stats cache.
    OlapEngine base(db, OlapConfig::pushtapDimm());
    OlapEngine opt(db, optimizedConfig());
    for (int round = 0; round < 2; ++round) {
        if (round > 0)
            for (int i = 0; i < 40; ++i)
                oltp.executeMixed();
        base.prepareSnapshot(db.now());
        opt.prepareSnapshot(db.now());
        for (const auto &q : workload::chExecutablePlans()) {
            const auto what =
                q.plan.name + " round " + std::to_string(round);
            QueryResult rb, ro;
            const auto repb = base.runQuery(q.plan, &rb);
            const auto repo = opt.runQuery(q.plan, &ro);
            expectSameRows(ro.rows, rb.rows, what);
            EXPECT_EQ(repo.rowsVisible, repb.rowsVisible) << what;
            EXPECT_TRUE(repo.optimized) << what;
            EXPECT_LE(repo.pricedChosenNs, repo.pricedHandBuiltNs)
                << what;
            EXPECT_GT(repo.execWorkers, 0u) << what;
            EXPECT_GT(repo.execMorselRows, 0u) << what;
            EXPECT_FALSE(repo.planSummary.empty()) << what;
        }
    }
    // The feedback half of the loop: the batch executor's measured
    // stats landed in the per-plan cache.
    const auto *st = opt.planStats("Q6");
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->runs, 2u);
    EXPECT_GT(st->probeVisible, 0u);
}

TEST_F(OptimizerPropertyTest, KnobSweepIsResultInvariant)
{
    // User-set workers pass through the optimizer untouched and
    // never perturb answers.
    OlapEngine ref(db, OlapConfig::pushtapDimm());
    ref.prepareSnapshot(db.now());
    std::vector<QueryResult> want;
    for (const auto &q : workload::chExecutablePlans()) {
        QueryResult r;
        ref.runQuery(q.plan, &r);
        want.push_back(std::move(r));
    }
    for (const std::uint32_t workers : {1u, 2u}) {
        OlapEngine opt(db, optimizedConfig(workers));
        opt.prepareSnapshot(db.now());
        std::size_t i = 0;
        for (const auto &q : workload::chExecutablePlans()) {
            const auto what =
                q.plan.name + " w" + std::to_string(workers);
            QueryResult r;
            const auto rep = opt.runQuery(q.plan, &r);
            expectSameRows(r.rows, want[i++].rows, what);
            EXPECT_EQ(rep.execWorkers, workers) << what;
        }
    }
}

TEST(OptimizerStatsPersistence, SurvivesEngineInstances)
{
    // PUSHTAP_OLAP_STATS_FILE carries the per-plan stats cache
    // across engine instances: the first engine observes, persists
    // at destruction; a second engine loads at construction and
    // re-optimizes from the observed selectivities immediately.
    Database db(smallConfig());
    format::BandwidthModel bw(8, 8, true);
    dram::BatchTimingModel timing(dram::Geometry::dimmDefault(),
                                  dram::TimingParams::ddr5_3200());
    TpccEngine oltp(db, InstanceFormat::Unified, bw, timing, 29);
    for (int i = 0; i < 20; ++i)
        oltp.executeMixed();

    const std::string path =
        ::testing::TempDir() + "pushtap_stats_roundtrip.txt";
    std::remove(path.c_str());
    ::setenv("PUSHTAP_OLAP_STATS_FILE", path.c_str(), 1);

    PlanStats want;
    {
        OlapEngine opt(db, optimizedConfig());
        opt.prepareSnapshot(db.now());
        for (const auto &q : workload::chExecutablePlans()) {
            QueryResult r;
            opt.runQuery(q.plan, &r);
        }
        const auto *st = opt.planStats("Q6");
        ASSERT_NE(st, nullptr);
        want = *st;
    } // Destructor persists the cache.

    {
        OlapEngine fresh(db, optimizedConfig());
        const auto *st = fresh.planStats("Q6");
        ASSERT_NE(st, nullptr);
        EXPECT_EQ(st->runs, want.runs);
        EXPECT_EQ(st->probeVisible, want.probeVisible);
        EXPECT_EQ(st->probeFiltered, want.probeFiltered);
        EXPECT_EQ(st->conjuncts, want.conjuncts);
        const auto *st9 = fresh.planStats("Q9");
        ASSERT_NE(st9, nullptr);
        EXPECT_FALSE(st9->joins.empty());
    }

    ::unsetenv("PUSHTAP_OLAP_STATS_FILE");
    std::remove(path.c_str());
}

TEST(OptimizerStatsPersistence, TruncatedFileKeepsOnlyCompleteRecords)
{
    // A file cut short mid-record loads only its complete records,
    // and the next save replaces it whole through a temp file.
    Database db(smallConfig());
    const std::string path =
        ::testing::TempDir() + "pushtap_stats_truncated.txt";
    const std::string tmp = path + ".tmp";
    std::remove(tmp.c_str());
    const std::string q6_record = "plan Q6\n"
                                  "runs 2\n"
                                  "probe 100 40\n"
                                  "conjunct 100 40\n"
                                  "end\n";
    std::ofstream(path) << "pushtap-olap-stats v1\n"
                        << q6_record << "plan Q9\n"
                        << "runs 3\n"
                        << "probe 40\n";
    ::setenv("PUSHTAP_OLAP_STATS_FILE", path.c_str(), 1);

    {
        OlapEngine eng(db, optimizedConfig(1));
        const auto *st6 = eng.planStats("Q6");
        ASSERT_NE(st6, nullptr);
        EXPECT_EQ(st6->runs, 2u);
        EXPECT_EQ(st6->probeVisible, 100u);
        EXPECT_EQ(st6->probeFiltered, 40u);
        ASSERT_EQ(st6->conjuncts.size(), 1u);
        EXPECT_EQ(st6->conjuncts[0].first, 100u);
        EXPECT_EQ(st6->conjuncts[0].second, 40u);
        EXPECT_EQ(eng.planStats("Q9"), nullptr)
            << "the torn Q9 record loaded as if it were whole";
    } // Destructor saves.

    std::ifstream saved(path);
    const std::string text{std::istreambuf_iterator<char>(saved),
                           std::istreambuf_iterator<char>()};
    EXPECT_EQ(text, "pushtap-olap-stats v1\n" + q6_record);
    EXPECT_FALSE(std::ifstream(tmp).good()) << "temp file left behind";

    // A file with an unknown header loads nothing.
    std::ofstream(path) << "pushtap-olap-stats v0\n" << q6_record;
    {
        OlapEngine eng(db, optimizedConfig(1));
        EXPECT_EQ(eng.planStats("Q6"), nullptr);
    }

    ::unsetenv("PUSHTAP_OLAP_STATS_FILE");
    std::remove(path.c_str());
}

TEST(OptimizerStatsPersistence, GarbledRecordIsDropped)
{
    // A record with a garbled number loads nothing, however well
    // formed its other lines; a whole record beside it still loads,
    // and the next save writes only that one.
    Database db(smallConfig());
    const std::string path =
        ::testing::TempDir() + "pushtap_stats_garbled.txt";
    const std::string q9_record = "plan Q9\n"
                                  "runs 4\n"
                                  "probe 100 40\n"
                                  "conjunct 100 40\n"
                                  "join 40 20 orders on ol_o_id\n"
                                  "end\n";
    std::ofstream(path) << "pushtap-olap-stats v1\n"
                        << "plan Q6\n"
                        << "runs 3\n"
                        << "probe 4O 30\n"
                        << "conjunct 9x 2\n"
                        << "end\n"
                        << q9_record;
    ::setenv("PUSHTAP_OLAP_STATS_FILE", path.c_str(), 1);

    {
        OlapEngine eng(db, optimizedConfig(1));
        EXPECT_EQ(eng.planStats("Q6"), nullptr)
            << "the garbled Q6 record loaded";
        const auto *st9 = eng.planStats("Q9");
        ASSERT_NE(st9, nullptr);
        EXPECT_EQ(st9->runs, 4u);
        EXPECT_EQ(st9->probeVisible, 100u);
        EXPECT_EQ(st9->probeFiltered, 40u);
        ASSERT_EQ(st9->joins.size(), 1u);
        EXPECT_EQ(st9->joins.begin()->first, "orders on ol_o_id");
    } // Destructor saves.

    std::ifstream saved(path);
    const std::string text{std::istreambuf_iterator<char>(saved),
                           std::istreambuf_iterator<char>()};
    EXPECT_EQ(text, "pushtap-olap-stats v1\n" + q9_record);

    // Trailing garbage, a missing count and an unknown line each
    // drop their record too.
    for (const std::string bad :
         {"runs 3 7\n", "probe 40\n", "join 40\n", "rnus 3\n"}) {
        std::ofstream(path) << "pushtap-olap-stats v1\nplan Q6\n" << bad
                            << "end\n";
        OlapEngine eng(db, optimizedConfig(1));
        EXPECT_EQ(eng.planStats("Q6"), nullptr) << bad;
    }

    ::unsetenv("PUSHTAP_OLAP_STATS_FILE");
    std::remove(path.c_str());
}

// ---- Unit tests over constructed plans ---------------------------

class OptimizerTest : public ::testing::Test
{
  protected:
    OptimizerTest()
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

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
    OlapEngine engine;
};

TEST_F(OptimizerTest, SkewedJoinOrderPutsTinyBuildFirst)
{
    // STOCK carries thousands of build rows, WAREHOUSE one: the
    // heuristic pass rate of the warehouse semi filter is near zero,
    // so cost ranking must run it first.
    const auto plan = skewedTwoJoinPlan();
    const auto oq = engine.optimizePlan(plan);
    ASSERT_EQ(oq.joinOrder.size(), 2u);
    EXPECT_EQ(oq.joinOrder[0], 1u);
    EXPECT_EQ(oq.joinOrder[1], 0u);
    EXPECT_EQ(oq.joinsReordered, 2u);
    EXPECT_LE(oq.pricedChosenNs, oq.pricedHandBuiltNs);

    // Filter reorder is selection commutation: byte-identical.
    expectSameRows(executePlan(db, oq.plan).result.rows,
                   executePlan(db, plan).result.rows, plan.name);
}

TEST_F(OptimizerTest, ObservedSelectivityOverridesHeuristics)
{
    // j0 semi-joins STOCK through an impossible build filter (kills
    // every probe row), j1 semi-joins ORDERS (passes most rows). The
    // cardinality heuristic prefers the smaller ORDERS build first;
    // after one observed run the stats cache knows j0's pass rate is
    // zero and the ranking returns to running it first.
    QueryPlan p;
    p.name = "observed2";
    p.probe.table = ChTable::OrderLine;

    JoinSpec stock;
    stock.build.table = ChTable::Stock;
    stock.build.intPredicates = {
        {"s_quantity", 1LL << 40, 1LL << 41}};
    stock.kind = JoinKind::Semi;
    stock.keys = {{"s_w_id", {ColRef::kProbe, "ol_supply_w_id"}},
                  {"s_i_id", {ColRef::kProbe, "ol_i_id"}}};

    JoinSpec orders;
    orders.build.table = ChTable::Orders;
    orders.kind = JoinKind::Semi;
    orders.keys = {{"o_w_id", {ColRef::kProbe, "ol_w_id"}},
                   {"o_d_id", {ColRef::kProbe, "ol_d_id"}},
                   {"o_id", {ColRef::kProbe, "ol_o_id"}}};

    p.joins = {std::move(stock), std::move(orders)};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};

    OlapEngine opt(db, optimizedConfig());
    opt.prepareSnapshot(db.now());

    const auto before = opt.optimizePlan(p);
    EXPECT_FALSE(before.usedObservedStats);
    ASSERT_EQ(before.joinOrder.size(), 2u);
    EXPECT_EQ(before.joinOrder[0], 1u) << "heuristics order the "
                                          "smaller ORDERS build "
                                          "first";

    QueryResult r;
    opt.runQuery(p, &r);

    const auto *st = opt.planStats(p.name);
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->runs, 1u);
    // The executed (reordered) run measured the STOCK filter: rows
    // flowed in, none survived the impossible build filter.
    const auto stock_sig = joinSignature(p, 0);
    ASSERT_TRUE(st->joins.count(stock_sig));
    ASSERT_GT(st->joins.at(stock_sig).in, 0u)
        << "the ORDERS filter must pass rows for this test to be "
           "meaningful";
    EXPECT_EQ(st->joins.at(stock_sig).out, 0u);

    const auto after = opt.optimizePlan(p);
    EXPECT_TRUE(after.usedObservedStats);
    EXPECT_EQ(after.joinsReordered, 0u)
        << "observed zero pass rate puts the STOCK filter back "
           "first";
}

TEST_F(OptimizerTest, DemotesInnerJoinCoveringPrimaryKey)
{
    // Keys cover ITEM's primary key and nothing reads the payload:
    // under the MVCC snapshot at most one build row matches, so the
    // inner join degenerates to a semi filter.
    QueryPlan p;
    p.name = "demotable";
    p.probe.table = ChTable::OrderLine;
    JoinSpec items;
    items.build.table = ChTable::Item;
    items.kind = JoinKind::Inner;
    items.keys = {{"i_id", {ColRef::kProbe, "ol_i_id"}}};
    p.joins = {items};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};

    const auto oq = engine.optimizePlan(p);
    EXPECT_EQ(oq.joinsDemoted, 1u);
    ASSERT_EQ(oq.demoted.size(), 1u);
    EXPECT_EQ(oq.demoted[0], 1u);
    EXPECT_EQ(oq.plan.joins[0].kind, JoinKind::Semi);
    EXPECT_LE(oq.pricedChosenNs, oq.pricedHandBuiltNs);
    expectSameRows(executePlan(db, oq.plan).result.rows,
                   executePlan(db, p).result.rows, p.name);

    // Referenced payload blocks the demotion.
    QueryPlan used = p;
    used.name = "payload_read";
    used.joins[0].payload = {"i_price"};
    used.aggregates.push_back({AggKind::Sum, {0, "i_price"}});
    const auto oq_used = engine.optimizePlan(used);
    EXPECT_EQ(oq_used.joinsDemoted, 0u);
    EXPECT_EQ(oq_used.plan.joins[0].kind, JoinKind::Inner);

    // Keys below the primary key block it too (o_id alone does not
    // identify an ORDERS row).
    QueryPlan partial;
    partial.name = "partial_key";
    partial.probe.table = ChTable::OrderLine;
    JoinSpec orders;
    orders.build.table = ChTable::Orders;
    orders.kind = JoinKind::Inner;
    orders.keys = {{"o_id", {ColRef::kProbe, "ol_o_id"}}};
    partial.joins = {orders};
    partial.aggregates = {
        {AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    const auto oq_partial = engine.optimizePlan(partial);
    EXPECT_EQ(oq_partial.joinsDemoted, 0u);
    EXPECT_EQ(oq_partial.plan.joins[0].kind, JoinKind::Inner);
}

TEST_F(OptimizerTest, FusedExprScanPricingDecomposition)
{
    // S1 decomposition: a multi-column expression predicate plus a
    // probe-keyed semi join prices as ONE fused serial scan of the
    // union of streamed probe columns, replacing the per-operator
    // Filter/Hash/Aggregation scans term for term.
    QueryPlan p;
    p.name = "fused_expr";
    p.probe.table = ChTable::OrderLine;
    p.probe.exprPredicates = {ex::gt(
        ex::add(ex::col("ol_quantity"), ex::col("ol_amount")),
        ex::lit(0))};
    JoinSpec items;
    items.build.table = ChTable::Item;
    items.kind = JoinKind::Semi;
    items.keys = {{"i_id", {ColRef::kProbe, "ol_i_id"}}};
    p.joins = {std::move(items)};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};

    // The executor fuses the whole probe pass.
    EXPECT_TRUE(planFusesProbePass(p));
    const auto exec = executePlan(db, p);
    EXPECT_EQ(exec.fusedScanColumns, 3u); // amount, i_id, quantity

    auto &tbl = db.table(ChTable::OrderLine);
    const auto &schema = tbl.schema();
    const auto unfused =
        engine.pricePlan(p, false, nullptr, exec.rowsVisible);
    const auto fused =
        engine.pricePlan(p, true, nullptr, exec.rowsVisible);

    // Per-operator probe charges the fused scan replaces: the two
    // expression columns (Filter), the semi-join probe key (Hash)
    // and the aggregate input (Aggregation).
    TimeNs removed = 0.0;
    for (const auto &[name, op] :
         {std::pair{"ol_amount", pim::OpType::Filter},
          std::pair{"ol_quantity", pim::OpType::Filter},
          std::pair{"ol_i_id", pim::OpType::Hash},
          std::pair{"ol_amount", pim::OpType::Aggregation}})
        removed +=
            engine.columnScanCost(tbl, schema.columnId(name), op)
                .schedule.total();
    std::uint32_t width = 0;
    for (const char *name : {"ol_amount", "ol_i_id", "ol_quantity"}) {
        const auto &pl =
            tbl.layout().keyPlacement(schema.columnId(name));
        width += tbl.layout().parts()[pl.part].rowWidth;
    }
    const TimeNs added =
        engine.scanCostForWidth(tbl, width, pim::OpType::Aggregation)
            .schedule.total();

    // Near, not bit-equal: the reconstruction re-associates the
    // float summation the pricing walk does in charge order.
    EXPECT_NEAR(fused.pimNs, unfused.pimNs - removed + added,
                1e-9 * unfused.pimNs);
    EXPECT_LT(fused.pimNs, unfused.pimNs);
    EXPECT_DOUBLE_EQ(fused.cpuNs, unfused.cpuNs);
}

TEST_F(OptimizerTest, DescribePlanDumpsPlanAndDecisions)
{
    const auto plan = skewedTwoJoinPlan();
    const auto logical = describePlan(plan);
    EXPECT_NE(logical.find("plan skewed2"), std::string::npos);
    EXPECT_NE(logical.find("probe orderline"), std::string::npos);
    EXPECT_NE(logical.find("join j0: semi stock"),
              std::string::npos);
    EXPECT_NE(logical.find("s_i_id == probe.ol_i_id"),
              std::string::npos);
    EXPECT_NE(logical.find("agg sum(probe.ol_amount)"),
              std::string::npos);

    const auto oq = engine.optimizePlan(plan);
    const auto dump = describePlan(plan, oq);
    EXPECT_NE(dump.find("optimizer"), std::string::npos);
    EXPECT_NE(dump.find("join order: j0<-hand j1 j1<-hand j0"),
              std::string::npos);
    EXPECT_NE(dump.find("knobs: workers="), std::string::npos);
    EXPECT_NE(dump.find("priced: chosen="), std::string::npos);
    EXPECT_NE(dump.find("cardinality heuristics"),
              std::string::npos);
}

TEST_F(OptimizerTest, KnobResolutionOrder)
{
    // Defaults derive: workers = 0 resolves to the hardware count.
    const auto oq = engine.optimizePlan(plans::q6());
    EXPECT_EQ(oq.workers, WorkerPool::hardwareWorkers());
    EXPECT_EQ(oq.morselRows, engine.config().morselRows)
        << "OrderLine fills many morsels: the default stays";

    // User-set values are authoritative.
    auto cfg = OlapConfig::pushtapDimm();
    cfg.workers = 3;
    cfg.morselRows = 512;
    OlapEngine pinned(db, cfg);
    pinned.prepareSnapshot(db.now());
    const auto oq_pinned = pinned.optimizePlan(plans::q6());
    EXPECT_EQ(oq_pinned.workers, 3u);
    EXPECT_EQ(oq_pinned.morselRows, 512u)
        << "an explicit morselRows is never retuned";

    // An explicit workers = 1 runs inline: the optimizer keeps it,
    // for the plan and for the execution that follows.
    OlapEngine serial(db, optimizedConfig(1));
    serial.prepareSnapshot(db.now());
    EXPECT_EQ(serial.optimizePlan(plans::q6()).workers, 1u);
    EXPECT_EQ(serial.runQuery(plans::q6()).execWorkers, 1u);

    // A defaulted morsel shrinks for a tiny probe table.
    QueryPlan tiny;
    tiny.name = "tiny_probe";
    tiny.probe.table = ChTable::Warehouse;
    tiny.aggregates = {{AggKind::Sum, {ColRef::kProbe, "w_ytd"}}};
    const auto oq_tiny = engine.optimizePlan(tiny);
    EXPECT_LT(oq_tiny.morselRows, engine.config().morselRows);
    EXPECT_GE(oq_tiny.morselRows, 64u);
}

} // namespace
} // namespace pushtap::olap
