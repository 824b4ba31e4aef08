#pragma once

/**
 * @file
 * The single-instance CH database: per table, the unified layout, the
 * bank-backed store (data + delta regions + snapshot bitmaps), the
 * MVCC version manager and the primary-key hash index. This is the
 * one copy of the data both engines operate on (Fig. 2(d)).
 */

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "format/block_circulant.hpp"
#include "format/generators.hpp"
#include "format/layout.hpp"
#include "format/schema.hpp"
#include "mvcc/version_manager.hpp"
#include "storage/table_store.hpp"
#include "txn/hash_index.hpp"
#include "workload/ch_gen.hpp"
#include "workload/ch_schema.hpp"

namespace pushtap::txn {

/** Which layout family the instance uses (Fig. 9(a) comparison). */
enum class InstanceFormat : std::uint8_t
{
    Unified,     ///< PUSHtap compact aligned + block circulant.
    RowStore,    ///< Packed rows (ideal OLTP baseline).
    ColumnStore, ///< Packed columns (PIM-friendly baseline).
};

struct DatabaseConfig
{
    double scale = 0.001;           ///< CH population scale factor.
    double th = 0.6;                ///< Compact-aligned threshold.
    std::uint32_t devices = 8;      ///< ADE stripe width.
    std::uint32_t blockRows = 1024; ///< Block-circulant B.
    int olapQuerySubset = 22;       ///< Key columns from queries Q1-n.
    double deltaFraction = 2.0;     ///< Delta capacity / data rows.
    double insertHeadroom = 0.3;    ///< Spare data rows for inserts.
    std::uint64_t seed = 42;
    /**
     * Char columns with at most this many distinct values get a
     * frozen per-column dictionary after population (predicates then
     * filter packed int codes instead of gathered bytes). 0 disables
     * dictionary encoding.
     */
    std::uint32_t dictMaxCardinality = 4096;
};

/** Everything runtime for one table. */
class TableRuntime
{
  public:
    TableRuntime(workload::ChTable id, format::TableSchema schema,
                 const DatabaseConfig &cfg);

    workload::ChTable id() const { return id_; }
    const format::TableSchema &schema() const { return *schema_; }
    const format::TableLayout &layout() const { return *layout_; }
    storage::TableStore &store() { return *store_; }
    const storage::TableStore &store() const { return *store_; }
    mvcc::VersionManager &versions() { return *versions_; }
    const mvcc::VersionManager &versions() const { return *versions_; }
    HashIndex &index() { return index_; }
    const HashIndex &index() const { return index_; }

    std::uint64_t populatedRows() const { return populatedRows_; }

    /** Data-region rows in use, including inserted tail rows. */
    std::uint64_t
    usedDataRows() const
    {
        return insertCursor_.load(std::memory_order_acquire);
    }

    /** Provisioned data-region rows (insert ceiling). */
    std::uint64_t dataCapacity() const { return dataCapacity_; }

    /**
     * Next insert slot in the data-region tail; fatal when full.
     * Thread-safe (lock-free claim).
     */
    RowId allocInsertRow();

    /** Reset the insert cursor's accounting after defragmentation. */
    void
    absorbInserts()
    {
        populatedRows_ = usedDataRows();
    }

  private:
    workload::ChTable id_;
    std::unique_ptr<format::TableSchema> schema_;
    std::unique_ptr<format::TableLayout> layout_;
    std::unique_ptr<storage::TableStore> store_;
    std::unique_ptr<mvcc::VersionManager> versions_;
    HashIndex index_;
    std::uint64_t populatedRows_;
    std::atomic<std::uint64_t> insertCursor_;
    std::uint64_t dataCapacity_;

    friend class Database;
};

class Database
{
  public:
    explicit Database(const DatabaseConfig &cfg = {});

    const DatabaseConfig &config() const { return cfg_; }
    const workload::ChGenerator &generator() const { return gen_; }

    TableRuntime &table(workload::ChTable t)
    {
        return *tables_[static_cast<std::size_t>(t)];
    }
    const TableRuntime &table(workload::ChTable t) const
    {
        return *tables_[static_cast<std::size_t>(t)];
    }

    /** Current global commit timestamp. */
    Timestamp
    now() const
    {
        return now_.load(std::memory_order_acquire);
    }

    /** Mint the next commit timestamp. Thread-safe. */
    Timestamp
    nextTimestamp()
    {
        return now_.fetch_add(1, std::memory_order_acq_rel) + 1;
    }

    /**
     * Atomically reserve @p n consecutive commit timestamps; returns
     * the base so the caller owns base+1 .. base+n. Lets a scheduler
     * pre-assign deterministic timestamps to a whole batch before
     * concurrent execution starts.
     */
    Timestamp
    reserveTimestamps(std::uint64_t n)
    {
        return now_.fetch_add(n, std::memory_order_acq_rel);
    }

    /**
     * Read the current (newest) canonical bytes of a row, following
     * the version chain. Returns chain steps walked.
     */
    std::uint32_t readNewest(workload::ChTable t, RowId row,
                             std::span<std::uint8_t> out);

    /** Total raw storage provisioned across tables (both regions). */
    Bytes storageBytes() const;

    /** Total snapshot bitmap storage across tables. */
    Bytes snapshotBytes() const;

  private:
    void populate();

    DatabaseConfig cfg_;
    workload::ChGenerator gen_;
    std::vector<std::unique_ptr<TableRuntime>> tables_;
    std::atomic<Timestamp> now_{0};
};

} // namespace pushtap::txn
