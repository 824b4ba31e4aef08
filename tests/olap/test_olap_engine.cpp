#include <gtest/gtest.h>

#include "common/log.hpp"

#include <memory>
#include <unordered_map>

#include "format/bandwidth.hpp"
#include "olap/olap_engine.hpp"
#include "support/engine_modes.hpp"
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
    cfg.blockRows = 64;
    cfg.deltaFraction = 3.0;
    cfg.insertHeadroom = 1.0;
    return cfg;
}

/**
 * Reference Q6: scan every logical row through the version chains
 * (a completely independent code path from the snapshot bitmaps).
 */
std::int64_t
referenceQ6(Database &db, std::int64_t d_lo, std::int64_t d_hi,
            std::int64_t q_lo, std::int64_t q_hi)
{
    auto &tbl = db.table(ChTable::OrderLine);
    const auto &s = tbl.schema();
    std::vector<std::uint8_t> buf(s.rowBytes());
    std::int64_t sum = 0;
    for (RowId r = 0; r < tbl.usedDataRows(); ++r) {
        db.readNewest(ChTable::OrderLine, r, buf);
        const workload::ConstRowView v(s, buf);
        const auto d = v.getInt("ol_delivery_d");
        const auto q = v.getInt("ol_quantity");
        if (d >= d_lo && d < d_hi && q >= q_lo && q <= q_hi)
            sum += v.getInt("ol_amount");
    }
    return sum;
}

class OlapEngineTest : public ::testing::Test
{
  protected:
    OlapEngineTest()
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

TEST_F(OlapEngineTest, Q6MatchesReferenceOnCleanData)
{
    engine.prepareSnapshot(db.now());
    QueryResult res;
    const auto rep = engine.runQuery(
        plans::q6(workload::kDateBase, workload::kDateBase + 2000, 1,
                  10),
        &res);
    EXPECT_EQ(res.rows[0].aggs[0],
              referenceQ6(db, workload::kDateBase,
                          workload::kDateBase + 2000, 1, 10));
    EXPECT_GT(rep.pimNs, 0.0);
    EXPECT_EQ(rep.rowsVisible,
              db.table(ChTable::OrderLine).populatedRows());
}

TEST_F(OlapEngineTest, Q6SeesCommittedTransactions)
{
    // Freshness: inserted order lines appear in the next query.
    QueryResult before, after;
    engine.prepareSnapshot(db.now());
    engine.runQuery(plans::q6(0, 1LL << 60, 1, 10), &before);

    for (int i = 0; i < 5; ++i)
        oltp.executeNewOrder();

    engine.prepareSnapshot(db.now());
    engine.runQuery(plans::q6(0, 1LL << 60, 1, 10), &after);
    EXPECT_GT(after.rows[0].aggs[0], before.rows[0].aggs[0]);
    EXPECT_EQ(after.rows[0].aggs[0],
              referenceQ6(db, 0, 1LL << 60, 1, 10));
}

TEST_F(OlapEngineTest, Q6IgnoresUncommittedFuture)
{
    // Snapshot isolation: a query sees the snapshot timestamp, not
    // transactions that commit afterwards.
    engine.prepareSnapshot(db.now());
    QueryResult at_snapshot;
    engine.runQuery(plans::q6(0, 1LL << 60, 1, 10), &at_snapshot);

    const auto frozen = db.now();
    for (int i = 0; i < 3; ++i)
        oltp.executeNewOrder();

    engine.prepareSnapshot(frozen); // snapshot at the old timestamp
    QueryResult still;
    engine.runQuery(plans::q6(0, 1LL << 60, 1, 10), &still);
    EXPECT_EQ(still.rows[0].aggs[0], at_snapshot.rows[0].aggs[0]);
}

TEST_F(OlapEngineTest, Q1GroupsMatchReference)
{
    for (int i = 0; i < 3; ++i)
        oltp.executeNewOrder();
    engine.prepareSnapshot(db.now());

    QueryResult res;
    engine.runQuery(plans::q1(workload::kDateBase), &res);
    const auto &rows = res.rows;
    ASSERT_FALSE(rows.empty());
    EXPECT_LE(rows.size(), 10u); // ol_number in [1, 10]

    // Reference aggregation through the version chains.
    auto &tbl = db.table(ChTable::OrderLine);
    const auto &s = tbl.schema();
    std::vector<std::uint8_t> buf(s.rowBytes());
    struct Sums
    {
        std::int64_t sumQuantity = 0, sumAmount = 0;
        std::uint64_t count = 0;
    };
    std::unordered_map<std::int64_t, Sums> expect;
    for (RowId r = 0; r < tbl.usedDataRows(); ++r) {
        db.readNewest(ChTable::OrderLine, r, buf);
        const workload::ConstRowView v(s, buf);
        if (v.getInt("ol_delivery_d") <= workload::kDateBase)
            continue;
        auto &g = expect[v.getInt("ol_number")];
        g.sumQuantity += v.getInt("ol_quantity");
        g.sumAmount += v.getInt("ol_amount");
        ++g.count;
    }
    ASSERT_EQ(rows.size(), expect.size());
    for (const auto &row : rows) {
        const auto &e = expect.at(row.keys[0]);
        EXPECT_EQ(row.aggs[0], e.sumQuantity);
        EXPECT_EQ(row.aggs[1], e.sumAmount);
        EXPECT_EQ(row.count, e.count);
    }
}

TEST_F(OlapEngineTest, Q9JoinMatchesReference)
{
    engine.prepareSnapshot(db.now());
    QueryResult res;
    const auto rep = engine.runQuery(plans::q9(), &res);
    EXPECT_GT(rep.pimNs, 0.0);
    EXPECT_GT(rep.cpuNs, 0.0);

    // Reference: nested-loop semantics over newest versions.
    auto &items = db.table(ChTable::Item);
    const auto &is = items.schema();
    std::vector<std::uint8_t> buf(is.rowBytes());
    std::set<std::int64_t> pass;
    for (RowId r = 0; r < items.usedDataRows(); ++r) {
        db.readNewest(ChTable::Item, r, buf);
        const workload::ConstRowView v(is, buf);
        if (v.getChars(is.columnId("i_data")).substr(0, 8) ==
            "ORIGINAL")
            pass.insert(v.getInt("i_id"));
    }
    auto &lines = db.table(ChTable::OrderLine);
    const auto &ls = lines.schema();
    std::vector<std::uint8_t> lbuf(ls.rowBytes());
    std::int64_t total = 0;
    std::uint64_t matches = 0;
    for (RowId r = 0; r < lines.usedDataRows(); ++r) {
        db.readNewest(ChTable::OrderLine, r, lbuf);
        const workload::ConstRowView v(ls, lbuf);
        if (pass.contains(v.getInt("ol_i_id"))) {
            total += v.getInt("ol_amount");
            ++matches;
        }
    }
    std::int64_t got_total = 0;
    std::uint64_t got_matches = 0;
    for (const auto &row : res.rows) {
        got_total += row.aggs[0];
        got_matches += row.count;
    }
    EXPECT_EQ(got_total, total);
    EXPECT_EQ(got_matches, matches);
}

TEST_F(OlapEngineTest, FragmentationGrowsScanCost)
{
    // Fig. 11(b): without defragmentation, query time grows with the
    // number of preceding transactions (delta blocks accumulate).
    auto &tbl = db.table(ChTable::OrderLine);
    const auto base = engine.columnScanCost(
        tbl, tbl.schema().columnId("ol_amount"),
        pim::OpType::Aggregation);
    for (int i = 0; i < 100; ++i)
        oltp.executeMixed();
    const auto frag = engine.columnScanCost(
        tbl, tbl.schema().columnId("ol_amount"),
        pim::OpType::Aggregation);
    EXPECT_GT(frag.totalBytes, base.totalBytes);
    EXPECT_GE(frag.schedule.total(), base.schedule.total());
}

TEST_F(OlapEngineTest, DefragmentationRestoresScanCost)
{
    auto &tbl = db.table(ChTable::OrderLine);
    const auto col = tbl.schema().columnId("ol_amount");
    for (int i = 0; i < 100; ++i)
        oltp.executeMixed();
    const auto frag =
        engine.columnScanCost(tbl, col, pim::OpType::Aggregation);
    engine.runDefragmentation(mvcc::DefragStrategy::Hybrid);
    const auto clean =
        engine.columnScanCost(tbl, col, pim::OpType::Aggregation);
    EXPECT_LT(clean.totalBytes, frag.totalBytes);

    // And results are still right afterwards.
    engine.prepareSnapshot(db.now());
    QueryResult res;
    engine.runQuery(plans::q6(0, 1LL << 60, 1, 10), &res);
    EXPECT_EQ(res.rows[0].aggs[0], referenceQ6(db, 0, 1LL << 60, 1, 10));
}

TEST_F(OlapEngineTest, ConsistencyChargedOncePerQuery)
{
    // In every mode: with the result cache on, the repeat is an
    // exact hit, which must not charge the snapshot again either.
    for (int i = 0; i < 20; ++i)
        oltp.executeMixed();
    for (const auto &mode : testsupport::kEngineModes) {
        SCOPED_TRACE(mode.name);
        OlapEngine eng(db, mode.apply(OlapConfig::pushtapDimm()));
        eng.prepareSnapshot(db.now());
        EXPECT_GT(eng.pendingConsistencyNs(), 0.0);
        const auto rep = eng.runQuery(plans::q6(0, 1LL << 60, 1, 10));
        EXPECT_GT(rep.consistencyNs, 0.0);
        EXPECT_EQ(eng.pendingConsistencyNs(), 0.0);
        const auto rep2 = eng.runQuery(plans::q6(0, 1LL << 60, 1, 10));
        EXPECT_EQ(rep2.consistencyNs, 0.0);
        EXPECT_EQ(rep2.cacheHit, mode.resultCache);
    }
}

TEST_F(OlapEngineTest, SnapshotStatsCountEveryTable)
{
    // A snapshot pass processes each committed version exactly once,
    // in whichever table it lives: Payment writes none to STOCK.
    engine.prepareSnapshot(db.now());
    auto created = oltp.stats().versionsCreated;
    for (int i = 0; i < 25; ++i)
        oltp.executePayment();
    engine.prepareSnapshot(db.now());
    EXPECT_GT(oltp.stats().versionsCreated, created);
    EXPECT_EQ(engine.lastSnapshotStats().versionsScanned,
              oltp.stats().versionsCreated - created);

    created = oltp.stats().versionsCreated;
    for (int i = 0; i < 25; ++i)
        oltp.executeMixed();
    engine.prepareSnapshot(db.now());
    EXPECT_EQ(engine.lastSnapshotStats().versionsScanned,
              oltp.stats().versionsCreated - created);
    EXPECT_EQ(engine.lastSnapshotStats().versionsSkipped, 0u);
}

TEST_F(OlapEngineTest, BlockCirculantImprovesParallelism)
{
    // Fig. 5: with rotation every unit participates; without, only
    // one device per stripe holds the column.
    auto &tbl = db.table(ChTable::OrderLine);
    const auto col = tbl.schema().columnId("ol_amount");
    const auto with = engine.columnScanCost(
        tbl, col, pim::OpType::Aggregation);

    auto cfg = OlapConfig::pushtapDimm();
    cfg.blockCirculant = false;
    OlapEngine no_rotation(db, cfg);
    const auto without = no_rotation.columnScanCost(
        tbl, col, pim::OpType::Aggregation);

    EXPECT_EQ(with.activeUnits, 8u * without.activeUnits);
    EXPECT_GT(without.schedule.total(), with.schedule.total());
}

TEST_F(OlapEngineTest, CpuBlockedTimeOnlyDuringLoadPhases)
{
    // Bank-lock time exists only while scans run on PIM.
    engine.prepareSnapshot(db.now());
    const auto rep = engine.runQuery(plans::q6(0, 1LL << 60, 1, 10));
    EXPECT_GT(rep.cpuBlockedNs, 0.0);
    EXPECT_LT(rep.cpuBlockedNs, rep.pimNs);
}

// ---- Plan-pipeline equivalence: the Q1/Q6/Q9 plans must keep the
// ---- pre-refactor QueryReport decomposition exactly.

TEST_F(OlapEngineTest, Q6TimingMatchesBespokeDecomposition)
{
    // Reconstruct the original hand-rolled Q6 pricing: three serial
    // scans (Filter delivery, Filter quantity, Aggregation amount)
    // plus one 8 B partial-sum merge per PIM unit.
    for (int i = 0; i < 20; ++i)
        oltp.executeMixed();
    engine.prepareSnapshot(db.now());
    const auto rep = engine.runQuery(plans::q6(0, 1LL << 60, 1, 10));

    auto &tbl = db.table(ChTable::OrderLine);
    const auto &s = tbl.schema();
    TimeNs pim = 0.0, blocked = 0.0;
    for (const auto &[name, op] :
         {std::pair{"ol_delivery_d", pim::OpType::Filter},
          std::pair{"ol_quantity", pim::OpType::Filter},
          std::pair{"ol_amount", pim::OpType::Aggregation}}) {
        const auto cost =
            engine.columnScanCost(tbl, s.columnId(name), op);
        pim += cost.schedule.total();
        blocked += cost.schedule.cpuBlockedTime;
    }
    const auto cfg = engine.config();
    const TimeNs cpu =
        dram::BatchTimingModel(cfg.geom, cfg.timing)
            .cpuPeakBandwidth()
            .transferTime(
                static_cast<Bytes>(cfg.geom.pimUnitCount()) * 8);

    EXPECT_DOUBLE_EQ(rep.pimNs, pim);
    EXPECT_DOUBLE_EQ(rep.cpuNs, cpu);
    EXPECT_DOUBLE_EQ(rep.cpuBlockedNs, blocked);
    EXPECT_EQ(rep.rowsVisible, tbl.usedDataRows());
}

TEST_F(OlapEngineTest, Q1TimingMatchesBespokeDecomposition)
{
    for (int i = 0; i < 20; ++i)
        oltp.executeMixed();
    engine.prepareSnapshot(db.now());
    const auto rep = engine.runQuery(plans::q1(workload::kDateBase));

    auto &tbl = db.table(ChTable::OrderLine);
    const auto &s = tbl.schema();
    TimeNs pim = 0.0;
    for (const auto &[name, op] :
         {std::pair{"ol_delivery_d", pim::OpType::Filter},
          std::pair{"ol_number", pim::OpType::Group},
          std::pair{"ol_quantity", pim::OpType::Aggregation},
          std::pair{"ol_amount", pim::OpType::Aggregation}})
        pim += engine.columnScanCost(tbl, s.columnId(name), op)
                   .schedule.total();
    const auto cfg = engine.config();
    const dram::BatchTimingModel tm(cfg.geom, cfg.timing);
    TimeNs cpu =
        tm.cpuPeakBandwidth().transferTime(rep.rowsVisible * 2);
    cpu += tm.cpuPeakBandwidth().transferTime(
        static_cast<Bytes>(cfg.geom.pimUnitCount()) * 16 * 8);

    EXPECT_DOUBLE_EQ(rep.pimNs, pim);
    EXPECT_DOUBLE_EQ(rep.cpuNs, cpu);
}

TEST_F(OlapEngineTest, Q9TimingMatchesBespokeDecomposition)
{
    // Q9 now carries its full CH join graph (ITEM, STOCK and ORDERS
    // legs); the decomposition mirrors priceQuery leg by leg.
    for (int i = 0; i < 20; ++i)
        oltp.executeMixed();
    engine.prepareSnapshot(db.now());
    const auto rep = engine.runQuery(plans::q9());

    auto &items = db.table(ChTable::Item);
    auto &stock = db.table(ChTable::Stock);
    auto &orders = db.table(ChTable::Orders);
    auto &lines = db.table(ChTable::OrderLine);
    const auto cfg = engine.config();
    const dram::BatchTimingModel tm(cfg.geom, cfg.timing);

    const std::uint64_t n_lines =
        lines.usedDataRows() + lines.versions().deltaUsed();
    // Bucket partition per join: 4 B per value each way.
    TimeNs cpu = 0.0;
    for (const auto *build : {&items, &stock, &orders})
        cpu += 2.0 * tm.cpuPeakBandwidth().transferTime(
                         (build->usedDataRows() + n_lines) * 4);

    // i_data is dictionary-encoded at this scale (~100 distinct
    // values): its NOT LIKE filter prices as one scan of the packed
    // code bytes instead of the raw CPU fragment gather.
    const auto *idict = items.store().dictionary(
        items.schema().columnId("i_data"));
    ASSERT_NE(idict, nullptr);
    TimeNs pim = engine.scanCostForWidth(items,
                                         idict->codeWidthBytes(),
                                         pim::OpType::Filter)
                     .schedule.total();
    auto hash = [&](txn::TableRuntime &tbl, const char *col) {
        pim += engine.columnScanCost(tbl,
                                     tbl.schema().columnId(col),
                                     pim::OpType::Hash)
                   .schedule.total();
    };
    auto probeCompute = [&](txn::TableRuntime &build) {
        pim += pim::CostModel(cfg.pimConfig)
                   .computeTime(pim::OpType::Join,
                                (build.usedDataRows() + n_lines) /
                                        cfg.geom.pimUnitCount() +
                                    1);
    };
    // ITEM leg.
    hash(items, "i_id");
    hash(lines, "ol_i_id");
    probeCompute(items);
    // STOCK leg (composite (s_i_id, s_w_id) key).
    hash(stock, "s_i_id");
    hash(lines, "ol_i_id");
    hash(stock, "s_w_id");
    hash(lines, "ol_supply_w_id");
    probeCompute(stock);
    // ORDERS leg: o_entry_d window filter, then the composite
    // (o_id, o_d_id, o_w_id) order key.
    pim += engine.columnScanCost(
                     orders, orders.schema().columnId("o_entry_d"),
                     pim::OpType::Filter)
               .schedule.total();
    hash(orders, "o_id");
    hash(lines, "ol_o_id");
    hash(orders, "o_d_id");
    hash(lines, "ol_d_id");
    hash(orders, "o_w_id");
    hash(lines, "ol_w_id");
    probeCompute(orders);
    // Group + aggregate.
    pim += engine.columnScanCost(
                     lines,
                     lines.schema().columnId("ol_supply_w_id"),
                     pim::OpType::Group)
               .schedule.total();
    pim += engine.columnScanCost(lines,
                                 lines.schema().columnId("ol_amount"),
                                 pim::OpType::Aggregation)
               .schedule.total();

    EXPECT_DOUBLE_EQ(rep.cpuNs, cpu);
    EXPECT_NEAR(rep.pimNs, pim, 1e-6 * pim);
}

TEST_F(OlapEngineTest, RunQueryChargesPendingConsistencyOnce)
{
    for (int i = 0; i < 10; ++i)
        oltp.executeMixed();
    engine.prepareSnapshot(db.now());
    EXPECT_GT(engine.pendingConsistencyNs(), 0.0);
    const auto rep =
        engine.runQuery(*workload::executableQueryPlan(14), nullptr);
    EXPECT_GT(rep.consistencyNs, 0.0);
    EXPECT_EQ(engine.pendingConsistencyNs(), 0.0);
    const auto rep2 =
        engine.runQuery(*workload::executableQueryPlan(4), nullptr);
    EXPECT_EQ(rep2.consistencyNs, 0.0);
}

} // namespace
} // namespace pushtap::olap
