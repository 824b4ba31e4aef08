#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "txn/txn_worker_group.hpp"
#include "workload/ch_schema.hpp"

namespace pushtap::txn {
namespace {

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

/** Newest canonical bytes of every used row of @p t, concatenated. */
std::vector<std::uint8_t>
tableBytes(Database &db, ChTable t)
{
    auto &tbl = db.table(t);
    const auto row_bytes = tbl.schema().rowBytes();
    std::vector<std::uint8_t> all;
    std::vector<std::uint8_t> row(row_bytes);
    for (RowId r = 0; r < tbl.usedDataRows(); ++r) {
        db.readNewest(t, r, row);
        all.insert(all.end(), row.begin(), row.end());
    }
    return all;
}

constexpr ChTable kWrittenTables[] = {
    ChTable::Warehouse, ChTable::District, ChTable::Customer,
    ChTable::History,   ChTable::NewOrder, ChTable::Orders,
    ChTable::OrderLine, ChTable::Stock,
};

/** Every written table's version chains run newest to oldest. */
void
expectChainsTimestampOrdered(const Database &db)
{
    for (const ChTable t : kWrittenTables) {
        const auto &vm = db.table(t).versions();
        const auto &versions = vm.versions();
        vm.forEachHead([&](RowId, std::uint32_t head) {
            std::uint32_t idx = head;
            Timestamp newer = kInvalidTimestamp;
            while (idx != mvcc::kNoVersion) {
                const auto &v = versions[idx];
                ASSERT_LE(v.writeTs, newer)
                    << workload::chTableName(t);
                newer = v.writeTs;
                idx = v.prev;
            }
        });
    }
}

class TxnWorkerGroupTest : public ::testing::Test
{
  protected:
    TxnWorkerGroupTest()
        : bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200())
    {
    }

    std::unique_ptr<TxnWorkerGroup>
    makeGroup(Database &db, std::uint32_t workers)
    {
        TxnWorkerGroupOptions opts;
        opts.workers = workers;
        return std::make_unique<TxnWorkerGroup>(
            db, InstanceFormat::Unified, bw, timing, opts);
    }

    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
};

TEST_F(TxnWorkerGroupTest, SingleWorkerMatchesSerialEngine)
{
    // The descriptor split must be a pure refactor: a one-worker
    // group replays the exact serial schedule, so every table's
    // newest bytes (and the clock) are bit-identical to the plain
    // engine with the same seed.
    constexpr std::uint64_t kTxns = 120;
    Database serial_db(smallConfig());
    TpccEngine engine(serial_db, InstanceFormat::Unified, bw, timing,
                      7);
    for (std::uint64_t i = 0; i < kTxns; ++i)
        engine.executeMixed();

    Database group_db(smallConfig());
    auto group = makeGroup(group_db, 1);
    group->run(kTxns);

    EXPECT_EQ(serial_db.now(), group_db.now());
    for (const ChTable t : kWrittenTables) {
        EXPECT_EQ(serial_db.table(t).usedDataRows(),
                  group_db.table(t).usedDataRows());
        EXPECT_EQ(tableBytes(serial_db, t), tableBytes(group_db, t))
            << workload::chTableName(t);
    }

    // The one worker books the same modelled cost, bit for bit.
    const TxnStats &want = engine.stats();
    const TxnStats got = group->stats();
    EXPECT_EQ(got.transactions, want.transactions);
    EXPECT_EQ(got.payments, want.payments);
    EXPECT_EQ(got.newOrders, want.newOrders);
    EXPECT_EQ(got.versionsCreated, want.versionsCreated);
    for (const char *part : {"allocation", "chain_traverse", "commit",
                             "computation", "indexing", "relayout"})
        EXPECT_EQ(got.cpu.get(part), want.cpu.get(part)) << part;
    EXPECT_EQ(got.cpu.total(), want.cpu.total());
    EXPECT_EQ(got.memLines, want.memLines);
    EXPECT_EQ(got.memTimeNs, want.memTimeNs);
}

TEST_F(TxnWorkerGroupTest, ParallelMatchesSerialRowValues)
{
    // One warehouse is one partition: four workers drain it on one
    // worker, schedule no gate wait, and every RMW row value lands
    // exactly where the serial schedule puts them.
    constexpr std::uint64_t kTxns = 200;
    Database serial_db(smallConfig());
    auto serial = makeGroup(serial_db, 1);
    serial->run(kTxns);

    Database par_db(smallConfig());
    auto par = makeGroup(par_db, 4);
    par->run(kTxns);

    EXPECT_EQ(serial_db.now(), par_db.now());
    // RMW tables: every row byte-identical. Insert tables: identical
    // row sets, but tail order is scheduling-dependent, so compare
    // cursors only (the integration test compares query results).
    for (const ChTable t : {ChTable::Warehouse, ChTable::District,
                            ChTable::Customer, ChTable::Stock}) {
        EXPECT_EQ(tableBytes(serial_db, t), tableBytes(par_db, t))
            << workload::chTableName(t);
    }
    for (const ChTable t : kWrittenTables)
        EXPECT_EQ(serial_db.table(t).usedDataRows(),
                  par_db.table(t).usedDataRows())
            << workload::chTableName(t);
    for (const ChTable t : kGatedTables)
        EXPECT_EQ(par->stats().gate(t).waits, 0u)
            << workload::chTableName(t);
}

TEST_F(TxnWorkerGroupTest, FrontierReachesBasePlusCount)
{
    constexpr std::uint64_t kTxns = 60;
    Database db(smallConfig());
    auto group = makeGroup(db, 4);
    const Timestamp before = db.now();
    group->run(kTxns);
    EXPECT_EQ(group->scheduleBase(), before);
    EXPECT_EQ(group->commitFrontier(), before + kTxns);
    EXPECT_EQ(db.now(), before + kTxns);

    const auto stats = group->stats();
    EXPECT_EQ(stats.transactions, kTxns);
    EXPECT_EQ(stats.payments + stats.newOrders, kTxns);
    EXPECT_GT(stats.versionsCreated, kTxns);
}

TEST_F(TxnWorkerGroupTest, ChainsStayTimestampOrderedPerRow)
{
    Database db(smallConfig());
    auto group = makeGroup(db, 4);
    group->run(150);
    expectChainsTimestampOrdered(db);
}

TEST_F(TxnWorkerGroupTest, StartFinishRunsInBackground)
{
    constexpr std::uint64_t kTxns = 80;
    Database db(smallConfig());
    auto group = makeGroup(db, 2);
    group->start(kTxns);
    // The frontier is monotonic while the batch drains.
    Timestamp last = 0;
    for (int i = 0; i < 100; ++i) {
        const Timestamp f = group->commitFrontier();
        EXPECT_GE(f, last);
        last = f;
    }
    group->finish();
    EXPECT_EQ(group->commitFrontier(), kTxns);
}

TEST_F(TxnWorkerGroupTest, ConsecutiveBatchesContinueTheClock)
{
    Database db(smallConfig());
    auto group = makeGroup(db, 3);
    group->run(40);
    EXPECT_EQ(group->commitFrontier(), 40u);
    group->run(40);
    EXPECT_EQ(group->scheduleBase(), 40u);
    EXPECT_EQ(group->commitFrontier(), 80u);
    EXPECT_EQ(group->stats().transactions, 80u);
}

/**
 * Two warehouses (scale 0.01): four workers drain two partitions, and
 * the row gates order the CUSTOMER and STOCK rows that both
 * warehouses' transactions write. The serial engine, a one-worker
 * group and a four-worker group each run the same 1,000-transaction
 * schedule on a database of their own, once for the whole suite.
 */
class TwoWarehouseGroup : public ::testing::Test
{
  protected:
    static constexpr std::uint64_t kTxns = 1'000;

    struct Runs
    {
        static DatabaseConfig
        config()
        {
            DatabaseConfig cfg;
            cfg.scale = 0.01;
            return cfg;
        }

        TxnStats
        runGroup(Database &db, std::uint32_t workers)
        {
            TxnWorkerGroupOptions opts;
            opts.workers = workers;
            TxnWorkerGroup group(db, InstanceFormat::Unified, bw, timing,
                                 opts);
            group.run(kTxns);
            return group.stats();
        }

        Runs()
            : bw(8, 8, true),
              timing(dram::Geometry::dimmDefault(),
                     dram::TimingParams::ddr5_3200())
        {
            // Population dominates the suite under the sanitizers, so
            // the three databases populate side by side.
            const auto populate = [] {
                return std::async(std::launch::async, [] {
                    return std::make_unique<Database>(config());
                });
            };
            auto s = populate(), o = populate(), f = populate();
            serial = s.get();
            one = o.get();
            four = f.get();

            TpccEngine engine(*serial, InstanceFormat::Unified, bw,
                              timing, 7);
            for (std::uint64_t i = 0; i < kTxns; ++i)
                engine.executeMixed();
            serialStats = engine.stats();
            oneStats = runGroup(*one, 1);
            fourStats = runGroup(*four, 4);
        }

        format::BandwidthModel bw;
        dram::BatchTimingModel timing;
        std::unique_ptr<Database> serial, one, four;
        TxnStats serialStats, oneStats, fourStats;
    };

    static void SetUpTestSuite() { runs_ = std::make_unique<Runs>(); }
    static void TearDownTestSuite() { runs_.reset(); }

    static inline std::unique_ptr<Runs> runs_;
};

TEST_F(TwoWarehouseGroup, FourWorkersMatchOneWorkerAndSerialEngine)
{
    ASSERT_EQ(runs_->serial->generator().rows(ChTable::Warehouse), 2u);
    for (const ChTable t : kGatedTables) {
        const auto want = tableBytes(*runs_->serial, t);
        EXPECT_EQ(tableBytes(*runs_->one, t), want)
            << workload::chTableName(t);
        EXPECT_EQ(tableBytes(*runs_->four, t), want)
            << workload::chTableName(t);
    }
    for (const ChTable t : kWrittenTables)
        EXPECT_EQ(runs_->four->table(t).usedDataRows(),
                  runs_->serial->table(t).usedDataRows())
            << workload::chTableName(t);
    // The schedule, and so the modelled cost, is worker-invariant.
    // Chain steps and index probes are charged in whole nanoseconds,
    // so their sums are exact in any merge order; NewOrder's gated
    // CUSTOMER read keeps the steps it counts in serial order.
    EXPECT_EQ(runs_->fourStats.versionsCreated,
              runs_->serialStats.versionsCreated);
    for (const char *part : {"chain_traverse", "indexing"})
        EXPECT_EQ(runs_->fourStats.cpu.get(part),
                  runs_->serialStats.cpu.get(part))
            << part;
    EXPECT_EQ(runs_->oneStats.totalNs(), runs_->serialStats.totalNs());
}

TEST_F(TwoWarehouseGroup, WaitsOnlyOnRowsKeyedAcrossWarehouses)
{
    // A warehouse's WAREHOUSE and DISTRICT rows are written by its
    // own partition alone; CUSTOMER and STOCK rows are keyed across
    // warehouses, so both partitions write some of them.
    const TxnStats &four = runs_->fourStats;
    EXPECT_EQ(four.gate(ChTable::Warehouse).waits, 0u);
    EXPECT_EQ(four.gate(ChTable::District).waits, 0u);
    EXPECT_GT(four.gate(ChTable::Customer).waits +
                  four.gate(ChTable::Stock).waits,
              0u);
    for (const ChTable t : kGatedTables) {
        EXPECT_LE(four.gate(t).stalls, four.gate(t).waits)
            << workload::chTableName(t);
        if (four.gate(t).stalls == 0) {
            EXPECT_EQ(four.gate(t).stallNs, 0u)
                << workload::chTableName(t);
        }
        // One worker is one partition: nothing to wait for. The
        // serial engine has no gates and counts nothing.
        EXPECT_EQ(runs_->oneStats.gate(t).waits, 0u)
            << workload::chTableName(t);
        EXPECT_EQ(runs_->serialStats.gate(t).waits, 0u)
            << workload::chTableName(t);
    }
}

TEST_F(TwoWarehouseGroup, ChainsStayTimestampOrderedPerRow)
{
    expectChainsTimestampOrdered(*runs_->four);
}

} // namespace
} // namespace pushtap::txn
