#pragma once

/**
 * @file
 * Physical storage of one table in the unified format (section 5.1):
 * a block-organised *data region* holding original-version rows and a
 * *delta region* holding newer versions created by transactions, both
 * laid out per the TableLayout across the d virtual devices of a bank
 * stripe. Rows are stored as real bytes so engine results are exact;
 * timing is accounted separately by the access models.
 *
 * The delta region is also organised into blocks: a new version of a
 * row keeps the block-circulant rotation of its origin row so PIM
 * units can later copy it back without cross-device traffic.
 *
 * Each region keeps one lane table, the base pointer and row width of
 * every (part, device) buffer, so a row read or write is the codec's
 * copy plan for the row's rotation class with one small copy per
 * entry, and a defragmentation run of consecutive rows is one memcpy
 * per lane.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/bitmap.hpp"
#include "common/types.hpp"
#include "format/block_circulant.hpp"
#include "format/dictionary.hpp"
#include "format/layout.hpp"
#include "format/row_codec.hpp"

namespace pushtap::storage {

/** Which region a row version lives in. */
enum class Region : std::uint8_t
{
    Data,
    Delta,
};

class TableStore
{
  public:
    /**
     * @param layout      Unified layout of the table.
     * @param circulant   Block-circulant placement config.
     * @param data_rows   Rows of the data region.
     * @param delta_rows  Capacity of the delta region.
     */
    TableStore(const format::TableLayout &layout,
               const format::BlockCirculant &circulant,
               std::uint64_t data_rows, std::uint64_t delta_rows);

    const format::TableLayout &layout() const { return *layout_; }
    const format::TableSchema &schema() const
    {
        return layout_->schema();
    }
    const format::BlockCirculant &circulant() const
    {
        return circulant_;
    }

    std::uint64_t dataRows() const { return dataRows_; }
    std::uint64_t deltaRows() const { return deltaRows_; }

    /**
     * Grow the delta region to at least @p rows (rotation-matched
     * allocation can produce sparse slot ids; see VersionManager).
     */
    void growDelta(std::uint64_t rows);

    /**
     * Write the canonical bytes of a row into a region: the codec's
     * copy plan for the row's rotation class, one small copy per
     * entry through the region's lane pointers. Delta writes beyond
     * the current capacity grow the region on demand (a
     * TxnWorkerGroup pre-grows it, so this never happens under
     * concurrent readers).
     */
    void writeRow(Region reg, RowId r,
                  std::span<const std::uint8_t> row);

    /** Read the canonical bytes of a row back from a region (the
     *  same copy plan, gathered). */
    void readRow(Region reg, RowId r,
                 std::span<std::uint8_t> row) const;

    /**
     * Read one integer column of one row directly (the PIM units'
     * localized view; only valid for unfragmented columns).
     */
    std::int64_t columnValue(Region reg, ColumnId c, RowId r) const;

    /**
     * Gather the raw bytes of one column of one row, fragment by
     * fragment (works for fragmented normal columns and char columns;
     * this is the CPU gather path the bandwidth model prices). @p out
     * must hold at least the column's width.
     */
    void readColumnBytes(Region reg, ColumnId c, RowId r,
                         std::span<std::uint8_t> out) const;

    /**
     * The contiguous device-local bytes of one part on one device
     * (rows * rowWidth). Combined with TableLayout::strideAccess this
     * is the zero-copy path batch decode streams unfragmented columns
     * from, without round-tripping through a row scratch buffer.
     */
    std::span<const std::uint8_t>
    partBytes(Region reg, std::uint32_t part, std::uint32_t dev) const
    {
        return regionStore(reg).parts[part][dev];
    }

    /**
     * Copy @p rows consecutive delta rows from @p from_delta on over
     * the data rows from @p to_data on, the way the PIM Defragment
     * operation does: one device-local copy of rows x w bytes per
     * (part, device), w the part's row width, then the dictionary
     * codes of each refreshed data row are re-encoded. Each run must
     * stay inside one rotation block on both sides, and the two
     * blocks must share their rotation. Returns bytes moved per device
     * stripe. One caller at a time per store: the re-encode reuses a
     * shared scratch buffer.
     */
    Bytes copyDeltaToData(RowId from_delta, RowId to_data,
                          std::uint64_t rows);

    /**
     * Bytes of raw storage provisioned for a region (layout bytes *
     * devices, including padding).
     */
    Bytes regionBytes(Region reg) const;

    /** The per-device snapshot bitmaps (visible rows per region). */
    Bitmap &dataVisible() { return dataVisible_; }
    const Bitmap &dataVisible() const { return dataVisible_; }
    Bitmap &deltaVisible() { return deltaVisible_; }
    const Bitmap &deltaVisible() const { return deltaVisible_; }

    /**
     * Storage the snapshot bitmaps occupy in DRAM: one copy per
     * device of the stripe (section 5.2).
     */
    Bytes snapshotStorageBytes() const;

    /** Verify a delta row keeps its origin row's rotation. */
    bool
    sameRotation(RowId data_row, RowId delta_row) const
    {
        return circulant_.blockOf(data_row) % circulant_.devices() ==
               circulant_.blockOf(delta_row) % circulant_.devices();
    }

    /**
     * Build frozen dictionaries for every Char column whose distinct
     * value count over the currently visible data rows is at most
     * @p max_cardinality. Call once, single-threaded, after initial
     * population; later writeRow/copyDeltaToData calls maintain the
     * packed per-row code arrays by read-only lookup. No-op when
     * @p max_cardinality is 0.
     */
    void buildDictionaries(std::uint32_t max_cardinality);

    /** Frozen dictionary of column @p c, or nullptr if none. */
    const format::ColumnDictionary *
    dictionary(ColumnId c) const
    {
        return c < dicts_.size() && dicts_[c] ? &dicts_[c]->dict
                                              : nullptr;
    }

    /**
     * Packed little-endian codes of the data region for a
     * dict-encoded column: one codeWidthBytes() entry per data row.
     */
    std::span<const std::uint8_t>
    dictDataCodes(ColumnId c) const
    {
        return dicts_[c]->codes;
    }

    /**
     * True while every data-region row written since the freeze got a
     * valid code. Once a post-freeze value misses the frozen table
     * (its row carries the sentinel code) this latches false and the
     * pure code-filter fast path must yield to the raw byte path.
     */
    bool
    dictFullyCoded(ColumnId c) const
    {
        return !dicts_[c]->anyNonCoded.load(
            std::memory_order_acquire);
    }

  private:
    struct RegionStore
    {
        /** [part][device] -> bytes (rows * rowWidth per device). */
        std::vector<std::vector<std::vector<std::uint8_t>>> parts;
        /** The codec's lanes over parts: each (part, device) buffer's
         *  base and row width, re-read whenever a buffer moves. */
        std::vector<format::Lane> lanes;

        void bindLanes(const format::TableLayout &layout);
    };

    struct ColumnDict
    {
        explicit ColumnDict(format::ColumnDictionary d)
            : dict(std::move(d))
        {
        }

        format::ColumnDictionary dict;
        /** dataRows * codeWidthBytes packed little-endian codes. */
        std::vector<std::uint8_t> codes;
        std::atomic<bool> anyNonCoded{false};
    };

    RegionStore &regionStore(Region reg);
    const RegionStore &regionStore(Region reg) const;

    /** Row @p r's first byte of placement @p pl in region @p reg. */
    const std::uint8_t *slotBytes(Region reg,
                                  const format::Placement &pl,
                                  RowId r) const;

    /** Encode @p row's dict columns into the code arrays at @p r. */
    void encodeDictRow(RowId r, std::span<const std::uint8_t> row);

    /** Store dict column @p c's @p code for data row @p r. */
    void storeDictCode(ColumnId c, RowId r, std::uint32_t code);

    const format::TableLayout *layout_;
    format::BlockCirculant circulant_;
    format::RowCodec codec_;
    std::uint64_t dataRows_;
    std::uint64_t deltaRows_;
    RegionStore data_;
    RegionStore delta_;
    Bitmap dataVisible_;
    Bitmap deltaVisible_;
    /** Indexed by ColumnId; null = column not dict-encoded. */
    std::vector<std::unique_ptr<ColumnDict>> dicts_;
    /** Widest dict column's bytes: copyDeltaToData's re-encode. */
    std::vector<std::uint8_t> dictScratch_;
};

} // namespace pushtap::storage
