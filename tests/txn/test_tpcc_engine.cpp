#include <gtest/gtest.h>

#include "common/log.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "txn/tpcc_engine.hpp"
#include "workload/row_view.hpp"

namespace pushtap::txn {
namespace {

using workload::ChTable;

class TpccEngineTest : public ::testing::Test
{
  protected:
    TpccEngineTest()
        : db(config()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          engine(db, InstanceFormat::Unified, bw, timing, 11)
    {}

    static DatabaseConfig
    config()
    {
        DatabaseConfig cfg;
        cfg.scale = 0.0002;
        cfg.blockRows = 64;
        cfg.deltaFraction = 3.0;
        cfg.insertHeadroom = 1.0;
        return cfg;
    }

    /** Versions each table holds, in ChTable order. */
    std::vector<std::size_t>
    versionsPerTable() const
    {
        std::vector<std::size_t> n;
        for (std::size_t t = 0; t < workload::kChTableCount; ++t) {
            const auto &tbl = db.table(static_cast<ChTable>(t));
            n.push_back(tbl.versions().versions().size());
        }
        return n;
    }

    /** Versions added per table since @p before, in ChTable order. */
    std::vector<std::size_t>
    versionsAddedSince(const std::vector<std::size_t> &before) const
    {
        auto added = versionsPerTable();
        for (std::size_t t = 0; t < added.size(); ++t)
            added[t] -= before[t];
        return added;
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine engine;
};

/** @p counts as a per-ChTable vector (tables not named get 0). */
std::vector<std::size_t>
perTable(std::initializer_list<std::pair<ChTable, std::size_t>> counts)
{
    std::vector<std::size_t> out(workload::kChTableCount, 0);
    for (const auto &[t, n] : counts)
        out[static_cast<std::size_t>(t)] = n;
    return out;
}

TEST_F(TpccEngineTest, PaymentCreatesFourVersions)
{
    const auto before = versionsPerTable();
    engine.executePayment();
    const auto &s = engine.stats();
    EXPECT_EQ(s.transactions, 1u);
    EXPECT_EQ(s.payments, 1u);
    // warehouse + district + customer updates + history insert, and
    // no other table is written.
    EXPECT_EQ(s.versionsCreated, 4u);
    EXPECT_EQ(versionsAddedSince(before),
              perTable({{ChTable::Warehouse, 1},
                        {ChTable::District, 1},
                        {ChTable::Customer, 1},
                        {ChTable::History, 1}}));
}

TEST_F(TpccEngineTest, NewOrderCreatesTwentyThreeVersions)
{
    const auto before = versionsPerTable();
    engine.executeNewOrder();
    // district + 10 stock updates + 10 orderline + orders + neworder;
    // Customer and Item are read only.
    EXPECT_EQ(engine.stats().versionsCreated, 23u);
    EXPECT_EQ(versionsAddedSince(before),
              perTable({{ChTable::District, 1},
                        {ChTable::NewOrder, 1},
                        {ChTable::Orders, 1},
                        {ChTable::OrderLine, 10},
                        {ChTable::Stock, 10}}));
}

TEST_F(TpccEngineTest, PaymentMovesMoney)
{
    const Timestamp ts = engine.executePayment();
    // Find the customer version created by the transaction and check
    // balance moved down, ytd up.
    auto &customers = db.table(ChTable::Customer);
    const auto &versions = customers.versions().versions();
    ASSERT_FALSE(versions.empty());
    const auto &v = versions.back();
    EXPECT_EQ(v.writeTs, ts);

    const auto &schema = customers.schema();
    std::vector<std::uint8_t> now(schema.rowBytes());
    customers.store().readRow(storage::Region::Delta, v.deltaSlot,
                              now);
    std::vector<std::uint8_t> orig(schema.rowBytes());
    customers.store().readRow(storage::Region::Data, v.rowId, orig);

    const workload::ConstRowView nv(schema, now), ov(schema, orig);
    EXPECT_LT(nv.getInt("c_balance"), ov.getInt("c_balance"));
    EXPECT_GT(nv.getInt("c_ytd_payment"),
              ov.getInt("c_ytd_payment"));
    EXPECT_EQ(nv.getInt("c_payment_cnt"),
              ov.getInt("c_payment_cnt") + 1);
}

TEST_F(TpccEngineTest, NewOrderBumpsDistrictCounter)
{
    auto &district = db.table(ChTable::District);
    const auto &schema = district.schema();
    std::vector<std::uint8_t> before(schema.rowBytes());
    std::vector<std::uint8_t> after(schema.rowBytes());

    // Aggregate d_next_o_id over all districts before and after.
    auto total_next = [&](std::vector<std::uint8_t> &buf) {
        std::int64_t total = 0;
        for (RowId r = 0; r < district.populatedRows(); ++r) {
            // Read through versions for freshness.
            Database &d = db;
            d.readNewest(ChTable::District, r, buf);
            total += workload::ConstRowView(schema, buf)
                         .getInt("d_next_o_id");
        }
        return total;
    };

    const auto t0 = total_next(before);
    engine.executeNewOrder();
    const auto t1 = total_next(after);
    EXPECT_EQ(t1, t0 + 1);
}

TEST_F(TpccEngineTest, NewOrderInsertsRows)
{
    const auto ol_before =
        db.table(ChTable::OrderLine).usedDataRows();
    const auto o_before = db.table(ChTable::Orders).usedDataRows();
    engine.executeNewOrder();
    EXPECT_EQ(db.table(ChTable::OrderLine).usedDataRows(),
              ol_before + 10);
    EXPECT_EQ(db.table(ChTable::Orders).usedDataRows(),
              o_before + 1);
}

TEST_F(TpccEngineTest, CpuBreakdownShapeMatchesFig11c)
{
    for (int i = 0; i < 200; ++i)
        engine.executeMixed();
    const auto &cpu = engine.stats().cpu;
    // Fig. 11(c): allocation ~44%, computation ~37%, indexing ~19%,
    // chain traversal < 0.1% — verify the ordering and rough bands
    // over the core components.
    const double core = cpu.get("allocation") +
                        cpu.get("computation") +
                        cpu.get("indexing") +
                        cpu.get("chain_traverse");
    EXPECT_GT(cpu.get("allocation") / core, 0.35);
    EXPECT_LT(cpu.get("allocation") / core, 0.55);
    EXPECT_GT(cpu.get("computation") / core, 0.28);
    EXPECT_LT(cpu.get("computation") / core, 0.45);
    EXPECT_GT(cpu.get("indexing") / core, 0.10);
    EXPECT_LT(cpu.get("indexing") / core, 0.30);
    EXPECT_LT(cpu.get("chain_traverse") / core, 0.01);
}

TEST_F(TpccEngineTest, MixedRunsBothTypes)
{
    for (int i = 0; i < 50; ++i)
        engine.executeMixed();
    EXPECT_GT(engine.stats().payments, 5u);
    EXPECT_GT(engine.stats().newOrders, 5u);
    EXPECT_EQ(engine.stats().payments + engine.stats().newOrders,
              50u);
}

TEST_F(TpccEngineTest, TimeAccumulates)
{
    engine.executePayment();
    const auto t1 = engine.stats().totalNs();
    engine.executePayment();
    EXPECT_GT(engine.stats().totalNs(), t1);
    EXPECT_GT(engine.stats().memTimeNs, 0.0);
    EXPECT_GT(engine.stats().memLines, 0.0);
}

TEST_F(TpccEngineTest, FootprintListsTheRowsExecuteVersions)
{
    // footprint() and apply*() are the two descriptions of a
    // transaction: the worker group sizes the delta regions and
    // places the row gates from the first, execute() writes through
    // the second. Per table, the footprint's written rows plus the
    // tail rows its inserts claim must be the rows of the versions a
    // serial execute() appends.
    Rng rng(5);
    std::vector<TxnDescriptor> txns;
    for (int i = 0; i < 300; ++i)
        txns.push_back(TpccEngine::genMixed(rng, db));
    // A NewOrder whose second line repeats the first line's item
    // versions one STOCK row twice.
    TxnDescriptor repeat = TpccEngine::genNewOrder(rng, db);
    repeat.lines[1] = repeat.lines[0];
    txns.push_back(repeat);

    for (TxnDescriptor &d : txns) {
        std::vector<TxnAccess> rows;
        std::array<std::uint64_t, workload::kChTableCount> inserts{};
        TpccEngine::footprint(d, rows, inserts);
        std::vector<std::vector<RowId>> want(workload::kChTableCount);
        for (const TxnAccess &a : rows)
            if (a.writes)
                want[static_cast<std::size_t>(a.table)].push_back(a.row);
        for (std::size_t t = 0; t < want.size(); ++t) {
            const RowId tail =
                db.table(static_cast<ChTable>(t)).usedDataRows();
            for (std::uint64_t k = 0; k < inserts[t]; ++k)
                want[t].push_back(tail + k);
        }

        const auto before = versionsPerTable();
        d.ts = db.nextTimestamp();
        engine.execute(d);
        for (std::size_t t = 0; t < want.size(); ++t) {
            const auto &versions =
                db.table(static_cast<ChTable>(t)).versions().versions();
            std::vector<RowId> got;
            for (std::size_t i = before[t]; i < versions.size(); ++i)
                got.push_back(versions[i].rowId);
            std::sort(got.begin(), got.end());
            std::sort(want[t].begin(), want[t].end());
            ASSERT_EQ(got, want[t])
                << workload::chTableName(static_cast<ChTable>(t))
                << " at ts " << d.ts;
        }
    }
}

TEST(TpccFormatComparison, FormatsOrderAsInFig9a)
{
    // RS is the OLTP-ideal format; CS pays a large penalty; the
    // unified format lands close to RS (Fig. 9(a): CS +28.1%,
    // PUSHtap +3.5%).
    DatabaseConfig cfg;
    cfg.scale = 0.0002;
    cfg.blockRows = 64;
    const format::BandwidthModel bw(8, 8, true);
    const dram::BatchTimingModel timing(
        dram::Geometry::dimmDefault(),
        dram::TimingParams::ddr5_3200());

    auto run = [&](InstanceFormat fmt) {
        Database db(cfg);
        TpccEngine engine(db, fmt, bw, timing, 99);
        for (int i = 0; i < 100; ++i)
            engine.executeMixed();
        return engine.stats().avgTxnNs();
    };

    const double rs = run(InstanceFormat::RowStore);
    const double cs = run(InstanceFormat::ColumnStore);
    const double unified = run(InstanceFormat::Unified);

    EXPECT_GT(cs, rs);
    EXPECT_GT(unified, rs * 0.999);
    // The unified penalty is far smaller than the column-store one.
    EXPECT_LT(unified - rs, 0.5 * (cs - rs));
}

/** Every modelled number of one 400-transaction mixed run. */
struct PinnedRun
{
    InstanceFormat fmt;
    std::uint64_t transactions;
    std::uint64_t versionsCreated;
    double allocation;
    double chainTraverse;
    double commit;
    double computation;
    double indexing;
    double relayout;
    double memLines;
    double memTimeNs;
    double totalNs;
};

TEST(TpccModelPins, MixedRunIsBitIdenticalPerFormat)
{
    // The cost model's output, pinned bit for bit: how the engine
    // books a charge (per-site precomputation, slot-indexed
    // breakdown) must never move a modelled number.
    constexpr PinnedRun kPins[] = {
        {InstanceFormat::Unified, 400, 5666, 0x1.0f208p+19,
         0x1.4ep+12, 0x1.77p+13, 0x1.c2f4cp+18, 0x1.6c7fp+18,
         0x1.4c13999999909p+15, 0x1.5d2d7p+15, 0x1.4a292f0dcd5eap+18,
         0x1.b494189040242p+20},
        {InstanceFormat::RowStore, 400, 5666, 0x1.0f208p+19,
         0x1.4ep+12, 0x1.77p+13, 0x1.c2f4cp+18, 0x1.6c7fp+18, 0x0p+0,
         0x1.998c8p+14, 0x1.b0b06dc70723p+17, 0x1.8dbf3db8e0e46p+20},
        {InstanceFormat::ColumnStore, 400, 5666, 0x1.0f208p+19,
         0x1.4ep+12, 0x1.77p+13, 0x1.c2f4cp+18, 0x1.6c7fp+18, 0x0p+0,
         0x1.115aep+15, 0x1.458d2df1c1d3cp+19, 0x1.fa6fc6f8e0e9ep+20},
    };
    const format::BandwidthModel bw(8, 8, true);
    const dram::BatchTimingModel timing(
        dram::Geometry::dimmDefault(),
        dram::TimingParams::ddr5_3200());
    for (const PinnedRun &pin : kPins) {
        SCOPED_TRACE(static_cast<int>(pin.fmt));
        DatabaseConfig cfg;
        cfg.scale = 0.001;
        Database db(cfg);
        TpccEngine engine(db, pin.fmt, bw, timing, 7);
        for (int i = 0; i < 400; ++i)
            engine.executeMixed();
        const TxnStats &s = engine.stats();
        EXPECT_EQ(s.transactions, pin.transactions);
        EXPECT_EQ(s.versionsCreated, pin.versionsCreated);
        EXPECT_EQ(s.cpu.get("allocation"), pin.allocation);
        EXPECT_EQ(s.cpu.get("chain_traverse"), pin.chainTraverse);
        EXPECT_EQ(s.cpu.get("commit"), pin.commit);
        EXPECT_EQ(s.cpu.get("computation"), pin.computation);
        EXPECT_EQ(s.cpu.get("indexing"), pin.indexing);
        EXPECT_EQ(s.cpu.get("relayout"), pin.relayout);
        EXPECT_EQ(s.memLines, pin.memLines);
        EXPECT_EQ(s.memTimeNs, pin.memTimeNs);
        EXPECT_EQ(s.totalNs(), pin.totalNs);
    }
}

} // namespace
} // namespace pushtap::txn
