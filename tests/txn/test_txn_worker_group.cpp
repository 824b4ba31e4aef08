#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
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
    // Four workers race over one warehouse (every payment gates on
    // the same warehouse row) yet all RMW row values must land
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

    for (const ChTable t : kWrittenTables) {
        const auto &vm = db.table(t).versions();
        const auto &versions = vm.versions();
        vm.forEachHead([&](RowId, std::uint32_t head) {
            std::uint32_t idx = head;
            Timestamp newer = kInvalidTimestamp;
            while (idx != mvcc::kNoVersion) {
                const auto &v = versions[idx];
                ASSERT_LE(v.writeTs, newer);
                newer = v.writeTs;
                idx = v.prev;
            }
        });
    }
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

} // namespace
} // namespace pushtap::txn
