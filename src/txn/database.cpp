#include "txn/database.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "mvcc/epoch.hpp"
#include "workload/query_catalog.hpp"
#include "workload/row_view.hpp"

namespace pushtap::txn {

using workload::ChTable;

TableRuntime::TableRuntime(ChTable id, format::TableSchema schema,
                           const DatabaseConfig &cfg)
    : id_(id),
      schema_(std::make_unique<format::TableSchema>(std::move(schema)))
{
    layout_ = std::make_unique<format::TableLayout>(
        format::compactAligned(*schema_, cfg.devices, cfg.th));

    const auto counts = workload::chRowCounts(cfg.scale);
    populatedRows_ = counts.at(id);
    insertCursor_ = populatedRows_;
    dataCapacity_ = populatedRows_ +
                    static_cast<std::uint64_t>(
                        static_cast<double>(populatedRows_) *
                        cfg.insertHeadroom) +
                    cfg.blockRows;
    // Initial delta provisioning; the store grows on demand because
    // rotation-matched slot ids are sparse when updates skew to a few
    // rotation classes. The version-manager bound is a generous
    // runaway guard, not the physical capacity.
    const std::uint64_t delta_capacity =
        static_cast<std::uint64_t>(
            static_cast<double>(populatedRows_) * cfg.deltaFraction) +
        cfg.blockRows * cfg.devices;
    const std::uint64_t delta_guard =
        std::max<std::uint64_t>(delta_capacity * 64, 1ull << 22);

    const format::BlockCirculant circ(cfg.devices, cfg.blockRows);
    store_ = std::make_unique<storage::TableStore>(
        *layout_, circ, dataCapacity_, delta_capacity);
    versions_ = std::make_unique<mvcc::VersionManager>(
        circ, delta_guard, dataCapacity_);

    // Unpopulated tail rows are invisible until inserted.
    for (RowId r = populatedRows_; r < dataCapacity_; ++r)
        store_->dataVisible().clear(r);
}

RowId
TableRuntime::allocInsertRow()
{
    // CAS loop rather than fetch_add: a failed claim must leave the
    // cursor untouched so usedDataRows() never overshoots capacity
    // (callers may catch the FatalError and keep using the table).
    std::uint64_t cur =
        insertCursor_.load(std::memory_order_relaxed);
    for (;;) {
        if (cur >= dataCapacity_)
            fatal("table {}: insert capacity exhausted ({} rows)",
                  schema_->name(), dataCapacity_);
        if (insertCursor_.compare_exchange_weak(
                cur, cur + 1, std::memory_order_acq_rel,
                std::memory_order_relaxed))
            return cur;
    }
}

Database::Database(const DatabaseConfig &cfg)
    : cfg_(cfg), gen_(cfg.seed, cfg.scale)
{
    auto schemas = workload::chBenchmarkSchemas();
    workload::markKeyColumns(schemas, cfg.olapQuerySubset);
    tables_.reserve(schemas.size());
    for (std::size_t i = 0; i < schemas.size(); ++i) {
        tables_.push_back(std::make_unique<TableRuntime>(
            static_cast<ChTable>(i), std::move(schemas[i]), cfg_));
    }
    populate();
    // Freeze per-column dictionaries over the populated rows; later
    // writes maintain the code arrays by read-only lookup.
    for (auto &tbl : tables_)
        tbl->store().buildDictionaries(cfg_.dictMaxCardinality);
}

void
Database::populate()
{
    std::vector<std::uint8_t> row;
    for (auto &tbl : tables_) {
        const auto &schema = tbl->schema();
        row.assign(schema.rowBytes(), 0);
        const workload::ConstRowView v(schema, row);
        const std::uint64_t n = tbl->populatedRows();
        for (RowId r = 0; r < n; ++r) {
            gen_.fillRow(tbl->id(), schema, r, row);
            tbl->store().writeRow(storage::Region::Data, r, row);

            // Primary-key index population.
            std::uint64_t key = 0;
            switch (tbl->id()) {
              case ChTable::Warehouse:
                key = packKey(static_cast<std::uint64_t>(
                    v.getInt("w_id")));
                break;
              case ChTable::District:
                key = packKey(static_cast<std::uint64_t>(
                                  v.getInt("d_w_id")),
                              static_cast<std::uint64_t>(
                                  v.getInt("d_id")));
                break;
              case ChTable::Customer:
                key = packKey(0, 0, static_cast<std::uint64_t>(
                                        v.getInt("c_id")));
                break;
              case ChTable::Item:
                key = packKey(0, 0, static_cast<std::uint64_t>(
                                        v.getInt("i_id")));
                break;
              case ChTable::Stock:
                // STOCK and ITEM have equal row counts (section 7.1),
                // so stock is keyed by item id alone.
                key = packKey(0, 0, static_cast<std::uint64_t>(
                                        v.getInt("s_i_id")));
                break;
              case ChTable::Orders:
                key = packKey(0, 0, static_cast<std::uint64_t>(
                                        v.getInt("o_id")));
                break;
              default:
                continue; // history/neworder/orderline: no PK index
            }
            tbl->index().insert(key, r);
        }
    }
}

std::uint32_t
Database::readNewest(ChTable t, RowId row,
                     std::span<std::uint8_t> out)
{
    auto &tbl = table(t);
    // Pin an epoch so defragmentation cannot reclaim the chain
    // between locating the newest version and reading its bytes.
    const mvcc::EpochGuard epoch(tbl.versions().epochs());
    const auto lk = tbl.versions().locateNewest(row);
    tbl.store().readRow(lk.region, lk.row, out);
    return lk.chainSteps;
}

Bytes
Database::storageBytes() const
{
    Bytes total = 0;
    for (const auto &tbl : tables_) {
        total += tbl->store().regionBytes(storage::Region::Data);
        total += tbl->store().regionBytes(storage::Region::Delta);
    }
    return total;
}

Bytes
Database::snapshotBytes() const
{
    Bytes total = 0;
    for (const auto &tbl : tables_)
        total += tbl->store().snapshotStorageBytes();
    return total;
}

} // namespace pushtap::txn
