#include "txn/tpcc_engine.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "format/row_codec.hpp"
#include "workload/row_view.hpp"

namespace pushtap::txn {

using workload::ChTable;
using workload::RowView;

namespace {

// CPU-side cost constants (ns), calibrated to Fig. 11(c).
constexpr double kIndexNsPerProbe = 46.0;
constexpr double kAllocNsPerVersion = 98.0;
constexpr double kComputeNsPerVersion = 81.5;
constexpr double kTraverseNsPerStep = 4.0;
/** Byte re-layout cost per fragment moved (PUSHtap only). */
constexpr double kRelayoutNsPerFragment = 0.3;
/** Commit fence after the clflush of dirtied lines. */
constexpr double kCommitBarrierNs = 30.0;
/**
 * Read memory-level parallelism. Row-organized formats (row store,
 * PUSHtap unified) fetch a row's lines from a few contiguous regions
 * that prefetching covers well; the column store gathers every column
 * from a distinct region, which serializes on TLB fills and row
 * activations (the CS penalty of Fig. 9(a)).
 */
constexpr double kRowFormatReadOverlap = 4.0;
constexpr double kColumnStoreReadOverlap = 1.0;
/** Cores sharing the memory bus (fair-share write cost). */
constexpr std::uint32_t kCores = 16;

/** Look @p key up in @p t's primary-key index; it must be there. */
TxnRow
resolve(const Database &db, ChTable t, std::uint64_t key)
{
    TxnRow r;
    const auto row = db.table(t).index().lookup(key, &r.probes);
    if (!row)
        panic("missing key {} in table {}", key,
              db.table(t).schema().name());
    r.row = *row;
    return r;
}

} // namespace

TpccEngine::TpccEngine(Database &db, InstanceFormat fmt,
                       const format::BandwidthModel &bw,
                       const dram::BatchTimingModel &timing,
                       std::uint64_t seed)
    : db_(db), fmt_(fmt), rng_(seed),
      sites_(resolveSites(bw, timing)), writes_(resolveWrites(bw, timing))
{
    std::uint32_t widest = 0;
    for (std::size_t t = 0; t < workload::kChTableCount; ++t)
        widest = std::max(
            widest, db_.table(static_cast<ChTable>(t)).schema().rowBytes());
    scratch_.resize(widest);
}

TpccEngine::Sites
TpccEngine::resolveSites(const format::BandwidthModel &bw,
                         const dram::BatchTimingModel &timing) const
{
    const auto read = [&](ChTable t,
                          std::initializer_list<std::string_view> cols) {
        return readSite(t, cols, bw, timing);
    };
    // Read-modify-write statements list the columns they update
    // first; inserts list the columns they set, in value order.
    return {
        .payWarehouse =
            read(ChTable::Warehouse, {"w_ytd", "w_tax", "w_name"}),
        .payDistrict =
            read(ChTable::District, {"d_ytd", "d_tax", "d_name"}),
        .payCustomer = read(ChTable::Customer,
                            {"c_balance", "c_ytd_payment",
                             "c_payment_cnt", "c_credit", "c_last"}),
        .payHistory = site(ChTable::History,
                           {"h_c_id", "h_c_w_id", "h_d_id", "h_w_id",
                            "h_date", "h_amount"}),
        .noDistrict =
            read(ChTable::District, {"d_next_o_id", "d_tax"}),
        .noCustomer = read(ChTable::Customer,
                           {"c_discount", "c_last", "c_credit"}),
        .noItem = read(ChTable::Item, {"i_price", "i_name", "i_data"}),
        .noStock = read(ChTable::Stock, {"s_quantity", "s_ytd",
                                         "s_order_cnt", "s_dist_01"}),
        .noOrderLine = site(ChTable::OrderLine,
                            {"ol_o_id", "ol_d_id", "ol_w_id",
                             "ol_number", "ol_i_id", "ol_supply_w_id",
                             "ol_delivery_d", "ol_quantity",
                             "ol_amount"}),
        .noOrders = site(ChTable::Orders,
                         {"o_id", "o_d_id", "o_w_id", "o_c_id",
                          "o_entry_d", "o_ol_cnt", "o_all_local"}),
        .noNewOrder =
            site(ChTable::NewOrder, {"no_o_id", "no_d_id", "no_w_id"}),
    };
}

std::array<TpccEngine::WriteSite, workload::kChTableCount>
TpccEngine::resolveWrites(const format::BandwidthModel &bw,
                          const dram::BatchTimingModel &timing) const
{
    std::array<WriteSite, workload::kChTableCount> writes;
    for (std::size_t t = 0; t < writes.size(); ++t)
        writes[t] = writeSite(static_cast<ChTable>(t), bw, timing);
    return writes;
}

TpccEngine::AccessSite
TpccEngine::site(ChTable t,
                 std::initializer_list<std::string_view> columns) const
{
    AccessSite s;
    s.table = t;
    s.schema = &db_.table(t).schema();
    if (columns.size() > s.columns.size())
        panic("access site on {} names {} columns, at most {}",
              s.schema->name(), columns.size(), s.columns.size());
    for (const std::string_view name : columns)
        s.columns[s.columnCount++] =
            s.schema->columnId(std::string(name));
    return s;
}

TpccEngine::AccessSite
TpccEngine::readSite(ChTable t,
                     std::initializer_list<std::string_view> columns,
                     const format::BandwidthModel &bw,
                     const dram::BatchTimingModel &timing) const
{
    AccessSite s = site(t, columns);
    const std::vector<ColumnId> ids(
        s.columns.begin(), s.columns.begin() + s.columnCount);
    const auto &tbl = db_.table(t);
    switch (fmt_) {
      case InstanceFormat::Unified:
        s.readLines = bw.columnSetAccess(tbl.layout(), ids).avgLines;
        break;
      case InstanceFormat::RowStore:
        s.readLines = bw.rowStoreColumns(tbl.schema(), ids).avgLines;
        break;
      case InstanceFormat::ColumnStore:
        s.readLines =
            bw.columnStoreColumns(tbl.schema(), ids).avgLines;
        break;
    }
    const double overlap = fmt_ == InstanceFormat::ColumnStore
                               ? kColumnStoreReadOverlap
                               : kRowFormatReadOverlap;
    s.readMemNs = s.readLines * timing.randomAccessLatency() / overlap;
    if (fmt_ == InstanceFormat::Unified) {
        // Loading re-layouts the fragments into the canonical form.
        s.readRelayoutNs =
            kRelayoutNsPerFragment * static_cast<double>(ids.size());
    }
    return s;
}

TpccEngine::WriteSite
TpccEngine::writeSite(ChTable t, const format::BandwidthModel &bw,
                      const dram::BatchTimingModel &timing) const
{
    // New versions append densely (consecutive delta slots share
    // lines across transactions in every format), so the amortised
    // write cost is the payload bytes — including the format's
    // padding — spread over whole lines.
    const auto &tbl = db_.table(t);
    const double line = static_cast<double>(bw.lineBytes());
    WriteSite w;
    w.lines = fmt_ == InstanceFormat::Unified
                  ? static_cast<double>(tbl.layout().paddedRowBytes()) /
                        line
                  : static_cast<double>(tbl.schema().rowBytes()) / line;
    // Streamed writes cost each core its fair share of the bus.
    const double bus_share_ns =
        line / (timing.cpuPeakBandwidth().bytesPerNs() /
                static_cast<double>(kCores));
    w.memNs = w.lines * bus_share_ns;
    if (fmt_ == InstanceFormat::Unified) {
        const format::RowCodec codec(tbl.layout(),
                                     tbl.store().circulant());
        w.relayoutNs = kRelayoutNsPerFragment *
                       static_cast<double>(codec.fragmentsPerRow());
    }
    return w;
}

void
TpccEngine::chargeIndex(const TxnRow &row)
{
    stats_.cpu.add(TxnCpu::Indexing,
                   kIndexNsPerProbe * static_cast<double>(row.probes));
}

std::span<std::uint8_t>
TpccEngine::readRow(const AccessSite &site, RowId row)
{
    const std::span<std::uint8_t> out(scratch_.data(),
                                      site.schema->rowBytes());
    const auto steps = db_.readNewest(site.table, row, out);
    stats_.cpu.add(TxnCpu::ChainTraverse,
                   kTraverseNsPerStep * static_cast<double>(steps));
    stats_.memLines += site.readLines;
    stats_.memTimeNs += site.readMemNs;
    stats_.cpu.add(TxnCpu::Relayout, site.readRelayoutNs);
    return out;
}

void
TpccEngine::updateRow(ChTable t, RowId row,
                      std::span<const std::uint8_t> data,
                      Timestamp ts)
{
    auto &tbl = db_.table(t);
    const RowId slot = tbl.versions().allocDeltaSlot(row);
    tbl.store().writeRow(storage::Region::Delta, slot, data);
    tbl.versions().addVersion(row, slot, ts);
    ++stats_.versionsCreated;

    const WriteSite &w = writes_[static_cast<std::size_t>(t)];
    stats_.cpu.add(TxnCpu::Allocation, kAllocNsPerVersion);
    stats_.cpu.add(TxnCpu::Computation, kComputeNsPerVersion);
    stats_.memLines += w.lines;
    stats_.memTimeNs += w.memNs;
    stats_.cpu.add(TxnCpu::Relayout, w.relayoutNs);
}

RowId
TpccEngine::insertRow(const AccessSite &site,
                      std::initializer_list<std::int64_t> values,
                      Timestamp ts)
{
    if (values.size() != site.columnCount)
        panic("insert into {}: {} values for {} columns",
              site.schema->name(), values.size(), site.columnCount);
    const std::span<std::uint8_t> data(scratch_.data(),
                                       site.schema->rowBytes());
    std::fill(data.begin(), data.end(), std::uint8_t{0});
    RowView v(*site.schema, data);
    const ColumnId *col = site.columns.data();
    for (const std::int64_t value : values)
        v.setInt(*col++, value);

    const RowId row = db_.table(site.table).allocInsertRow();
    // The fresh row is born as a delta version of its (invisible)
    // data-region slot, so snapshots expose it consistently and
    // defragmentation lands it in place.
    updateRow(site.table, row, data, ts);
    return row;
}

void
TpccEngine::commit(std::uint64_t dirtied_lines)
{
    // clflush of the dirtied lines is already accounted as write
    // traffic; the commit fence serialises them (section 6.3).
    (void)dirtied_lines;
    stats_.cpu.add(TxnCpu::Commit, kCommitBarrierNs);
}

TxnDescriptor
TpccEngine::genPayment(Rng &rng, const Database &db)
{
    const auto &counts = db.generator().rowCounts();
    const auto n_w = counts.at(ChTable::Warehouse);
    const auto n_c = counts.at(ChTable::Customer);

    TxnDescriptor d;
    d.kind = TxnDescriptor::Kind::Payment;
    d.warehouse = rng.below(n_w);
    d.district = rng.below(10);
    NuRand nurand(rng, 1023, 259);
    d.customer = static_cast<std::uint64_t>(
        nurand(0, static_cast<std::int64_t>(n_c - 1)));
    d.amount = rng.inRange(100, 500000);
    d.warehouseRow = resolve(db, ChTable::Warehouse, packKey(d.warehouse));
    d.districtRow =
        resolve(db, ChTable::District, packKey(d.warehouse, d.district));
    d.customerRow =
        resolve(db, ChTable::Customer, packKey(0, 0, d.customer));
    return d;
}

TxnDescriptor
TpccEngine::genNewOrder(Rng &rng, const Database &db)
{
    const auto &counts = db.generator().rowCounts();
    const auto n_w = counts.at(ChTable::Warehouse);
    const auto n_c = counts.at(ChTable::Customer);
    const auto n_i = counts.at(ChTable::Item);

    TxnDescriptor d;
    d.kind = TxnDescriptor::Kind::NewOrder;
    d.warehouse = rng.below(n_w);
    d.district = rng.below(10);
    NuRand nurand(rng, 1023, 259);
    d.customer = static_cast<std::uint64_t>(
        nurand(0, static_cast<std::int64_t>(n_c - 1)));
    d.districtRow =
        resolve(db, ChTable::District, packKey(d.warehouse, d.district));
    d.customerRow =
        resolve(db, ChTable::Customer, packKey(0, 0, d.customer));
    NuRand item_rand(rng, 8191, 7911);
    for (auto &line : d.lines) {
        line.item = static_cast<std::uint64_t>(
            item_rand(0, static_cast<std::int64_t>(n_i - 1)));
        line.qty = rng.inRange(1, 10);
        line.itemRow = resolve(db, ChTable::Item, packKey(0, 0, line.item));
        line.stockRow =
            resolve(db, ChTable::Stock, packKey(0, 0, line.item));
    }
    return d;
}

TxnDescriptor
TpccEngine::genMixed(Rng &rng, const Database &db)
{
    return rng.flip(0.5) ? genPayment(rng, db)
                         : genNewOrder(rng, db);
}

Timestamp
TpccEngine::execute(const TxnDescriptor &d)
{
    if (d.kind == TxnDescriptor::Kind::Payment)
        applyPayment(d);
    else
        applyNewOrder(d);
    return d.ts;
}

Timestamp
TpccEngine::executePayment()
{
    TxnDescriptor d = genPayment(rng_, db_);
    d.ts = db_.nextTimestamp();
    return execute(d);
}

Timestamp
TpccEngine::executeNewOrder()
{
    TxnDescriptor d = genNewOrder(rng_, db_);
    d.ts = db_.nextTimestamp();
    return execute(d);
}

Timestamp
TpccEngine::executeMixed()
{
    TxnDescriptor d = genMixed(rng_, db_);
    d.ts = db_.nextTimestamp();
    return execute(d);
}

void
TpccEngine::applyPayment(const TxnDescriptor &txn)
{
    const auto w = txn.warehouse;
    const auto d = txn.district;
    const auto c = txn.customer;
    const std::int64_t amount = txn.amount;
    const Timestamp ts = txn.ts;

    // Warehouse, then district: read ytd/tax/name, bump ytd.
    for (const auto &[site, row] :
         {std::pair{&sites_.payWarehouse, txn.warehouseRow},
          std::pair{&sites_.payDistrict, txn.districtRow}}) {
        chargeIndex(row);
        const auto bytes = readRow(*site, row.row);
        RowView v(*site->schema, bytes);
        const ColumnId ytd = site->columns[0];
        v.setInt(ytd, v.getInt(ytd) + amount);
        updateRow(site->table, row.row, bytes, ts);
    }
    // Customer: balance / ytd / payment count.
    {
        const AccessSite &s = sites_.payCustomer;
        const TxnRow &row = txn.customerRow;
        chargeIndex(row);
        const auto bytes = readRow(s, row.row);
        RowView v(*s.schema, bytes);
        const ColumnId balance = s.columns[0];
        const ColumnId ytd_payment = s.columns[1];
        const ColumnId payment_cnt = s.columns[2];
        v.setInt(balance, v.getInt(balance) - amount);
        v.setInt(ytd_payment, v.getInt(ytd_payment) + amount);
        v.setInt(payment_cnt, v.getInt(payment_cnt) + 1);
        updateRow(s.table, row.row, bytes, ts);
    }
    // History insert.
    const auto wi = static_cast<std::int64_t>(w);
    insertRow(sites_.payHistory,
              {static_cast<std::int64_t>(c), wi,
               static_cast<std::int64_t>(d), wi,
               workload::kDateBase + static_cast<std::int64_t>(ts),
               amount},
              ts);

    commit(0);
    ++stats_.transactions;
    ++stats_.payments;
}

void
TpccEngine::applyNewOrder(const TxnDescriptor &txn)
{
    const auto w = static_cast<std::int64_t>(txn.warehouse);
    const auto d = static_cast<std::int64_t>(txn.district);
    const auto c = static_cast<std::int64_t>(txn.customer);
    const Timestamp ts = txn.ts;
    const std::int64_t date =
        workload::kDateBase + static_cast<std::int64_t>(ts);
    std::int64_t next_o_id = 0;

    // District: read and bump the order counter.
    {
        const AccessSite &s = sites_.noDistrict;
        const TxnRow &row = txn.districtRow;
        chargeIndex(row);
        const auto bytes = readRow(s, row.row);
        RowView v(*s.schema, bytes);
        const ColumnId next = s.columns[0];
        next_o_id = v.getInt(next);
        v.setInt(next, next_o_id + 1);
        updateRow(s.table, row.row, bytes, ts);
    }
    // Customer: discount / credit (read-only).
    chargeIndex(txn.customerRow);
    readRow(sites_.noCustomer, txn.customerRow.row);

    for (std::uint64_t line = 0; line < workload::kLinesPerOrder;
         ++line) {
        const TxnLine &l = txn.lines[line];
        const std::int64_t qty = l.qty;

        // Item read.
        const AccessSite &is = sites_.noItem;
        chargeIndex(l.itemRow);
        const std::int64_t price =
            RowView(*is.schema, readRow(is, l.itemRow.row))
                .getInt(is.columns[0]);

        // Stock read-modify-write.
        const AccessSite &s = sites_.noStock;
        chargeIndex(l.stockRow);
        const auto bytes = readRow(s, l.stockRow.row);
        RowView v(*s.schema, bytes);
        const ColumnId quantity = s.columns[0];
        const ColumnId ytd = s.columns[1];
        const ColumnId order_cnt = s.columns[2];
        std::int64_t sq = v.getInt(quantity);
        sq = sq >= qty + 10 ? sq - qty : sq - qty + 91;
        v.setInt(quantity, sq);
        v.setInt(ytd, v.getInt(ytd) + qty);
        v.setInt(order_cnt, v.getInt(order_cnt) + 1);
        updateRow(s.table, l.stockRow.row, bytes, ts);

        // Order line insert.
        insertRow(sites_.noOrderLine,
                  {next_o_id, d, w, static_cast<std::int64_t>(line + 1),
                   static_cast<std::int64_t>(l.item), w, date, qty,
                   qty * price},
                  ts);
    }

    // Orders + NewOrder inserts.
    insertRow(sites_.noOrders,
              {next_o_id, d, w, c, date,
               static_cast<std::int64_t>(workload::kLinesPerOrder), 1},
              ts);
    insertRow(sites_.noNewOrder, {next_o_id, d, w}, ts);

    commit(0);
    ++stats_.transactions;
    ++stats_.newOrders;
}

void
TpccEngine::footprint(
    const TxnDescriptor &d, std::vector<TxnAccess> &rows,
    std::array<std::uint64_t, workload::kChTableCount> &inserts)
{
    const auto insert = [&inserts](ChTable t, std::uint64_t n) {
        inserts[static_cast<std::size_t>(t)] += n;
    };
    if (d.kind == TxnDescriptor::Kind::Payment) {
        rows.push_back({ChTable::Warehouse, true, d.warehouseRow.row});
        rows.push_back({ChTable::District, true, d.districtRow.row});
        rows.push_back({ChTable::Customer, true, d.customerRow.row});
        insert(ChTable::History, 1);
        return;
    }
    rows.push_back({ChTable::District, true, d.districtRow.row});
    // Listed although read-only: another partition's Payment may
    // write the row, and the chain steps the read charges must follow
    // the serial order.
    rows.push_back({ChTable::Customer, false, d.customerRow.row});
    for (const TxnLine &line : d.lines)
        rows.push_back({ChTable::Stock, true, line.stockRow.row});
    insert(ChTable::OrderLine, workload::kLinesPerOrder);
    insert(ChTable::Orders, 1);
    insert(ChTable::NewOrder, 1);
}

} // namespace pushtap::txn
