#include "storage/table_store.hpp"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace pushtap::storage {

TableStore::TableStore(const format::TableLayout &layout,
                       const format::BlockCirculant &circulant,
                       std::uint64_t data_rows,
                       std::uint64_t delta_rows)
    : layout_(&layout),
      circulant_(circulant),
      codec_(layout, circulant),
      dataRows_(data_rows),
      deltaRows_(delta_rows),
      dataVisible_(data_rows, true),
      deltaVisible_(delta_rows, false)
{
    auto provision = [&](RegionStore &store, std::uint64_t rows) {
        store.parts.resize(layout.parts().size());
        for (std::size_t p = 0; p < layout.parts().size(); ++p) {
            const auto w = layout.parts()[p].rowWidth;
            store.parts[p].assign(
                layout.devices(),
                std::vector<std::uint8_t>(rows * w, 0));
        }
    };
    provision(data_, data_rows);
    provision(delta_, delta_rows);
    data_.bindLanes(layout);
    delta_.bindLanes(layout);
}

void
TableStore::RegionStore::bindLanes(const format::TableLayout &layout)
{
    lanes.clear();
    for (std::size_t p = 0; p < parts.size(); ++p)
        for (auto &dev : parts[p])
            lanes.push_back({dev.data(), layout.parts()[p].rowWidth});
}

TableStore::RegionStore &
TableStore::regionStore(Region reg)
{
    return reg == Region::Data ? data_ : delta_;
}

const TableStore::RegionStore &
TableStore::regionStore(Region reg) const
{
    return reg == Region::Data ? data_ : delta_;
}

void
TableStore::growDelta(std::uint64_t rows)
{
    if (rows <= deltaRows_)
        return;
    const std::uint64_t new_rows =
        std::max<std::uint64_t>(rows, deltaRows_ * 2);
    for (std::size_t p = 0; p < layout_->parts().size(); ++p) {
        const auto w = layout_->parts()[p].rowWidth;
        for (auto &dev : delta_.parts[p])
            dev.resize(new_rows * w, 0);
    }
    delta_.bindLanes(*layout_);
    deltaVisible_.grow(new_rows);
    deltaRows_ = new_rows;
}

void
TableStore::writeRow(Region reg, RowId r,
                     std::span<const std::uint8_t> row)
{
    if (reg == Region::Delta && r >= deltaRows_) {
        // The delta region grows on demand: rotation-class allocation
        // produces sparse slot ids when updates skew to one class.
        growDelta(r + 1);
    }
    const std::uint64_t limit =
        reg == Region::Data ? dataRows_ : deltaRows_;
    if (r >= limit)
        panic("writeRow: row {} beyond region capacity {}", r, limit);
    codec_.scatter(r, row, regionStore(reg).lanes);
    if (reg == Region::Data && !dicts_.empty())
        encodeDictRow(r, row);
}

void
TableStore::readRow(Region reg, RowId r,
                    std::span<std::uint8_t> row) const
{
    const std::uint64_t limit =
        reg == Region::Data ? dataRows_ : deltaRows_;
    if (r >= limit)
        panic("readRow: row {} beyond region capacity {}", r, limit);
    codec_.gather(r, regionStore(reg).lanes, row);
}

std::int64_t
TableStore::columnValue(Region reg, ColumnId c, RowId r) const
{
    const auto &pl = layout_->keyPlacement(c);
    const auto &col = schema().column(c);
    return format::decodeValue(
        col, std::span<const std::uint8_t>(slotBytes(reg, pl, r),
                                           col.width));
}

void
TableStore::readColumnBytes(Region reg, ColumnId c, RowId r,
                            std::span<std::uint8_t> out) const
{
    const auto &col = schema().column(c);
    if (out.size() < col.width)
        panic("readColumnBytes: buffer {} < column width {}",
              out.size(), col.width);
    for (const auto &pl : layout_->placements(c))
        std::memcpy(out.data() + pl.fragment.byteOffset,
                    slotBytes(reg, pl, r), pl.fragment.byteCount);
}

const std::uint8_t *
TableStore::slotBytes(Region reg, const format::Placement &pl,
                      RowId r) const
{
    const format::Lane &lane =
        regionStore(reg).lanes[pl.part * layout_->devices() +
                               circulant_.deviceFor(pl.slot, r)];
    return lane.base + r * lane.stride + pl.slotOffset;
}

Bytes
TableStore::copyDeltaToData(RowId from_delta, RowId to_data,
                            std::uint64_t rows)
{
    if (rows == 0)
        return 0;
    if (!sameRotation(to_data, from_delta))
        panic("defragment copy across rotations: data {} delta {}",
              to_data, from_delta);
    const RowId data_end = to_data + rows, delta_end = from_delta + rows;
    if (circulant_.blockOf(data_end - 1) != circulant_.blockOf(to_data) ||
        circulant_.blockOf(delta_end - 1) != circulant_.blockOf(from_delta))
        panic("defragment run of {} rows leaves a rotation block: "
              "data {} delta {}",
              rows, to_data, from_delta);
    if (data_end > dataRows_ || delta_end > deltaRows_)
        panic("defragment run of {} rows beyond a region: data {} of "
              "{}, delta {} of {}",
              rows, to_data, dataRows_, from_delta, deltaRows_);

    Bytes moved = 0;
    // Inside one block the rotations match, so for every (part,
    // device) the run's slots align: one device-local copy per lane,
    // exactly what the PIM Defragment op does.
    for (std::size_t l = 0; l < data_.lanes.size(); ++l) {
        const format::Lane &dst = data_.lanes[l];
        const format::Lane &src = delta_.lanes[l];
        std::memcpy(dst.base + to_data * dst.stride,
                    src.base + from_delta * src.stride, rows * dst.stride);
        moved += rows * dst.stride;
    }
    if (!dicts_.empty()) {
        // Re-encode the dict columns of each refreshed data row from
        // the bytes just copied in (defrag keeps codes in sync).
        for (RowId r = to_data; r < data_end; ++r) {
            for (ColumnId c = 0; c < dicts_.size(); ++c) {
                if (!dicts_[c])
                    continue;
                const std::span<std::uint8_t> buf(
                    dictScratch_.data(), schema().column(c).width);
                readColumnBytes(Region::Data, c, r, buf);
                storeDictCode(c, r, dicts_[c]->dict.encode(buf));
            }
        }
    }
    return moved;
}

void
TableStore::storeDictCode(ColumnId c, RowId r, std::uint32_t code)
{
    ColumnDict &cd = *dicts_[c];
    if (code == cd.dict.sentinel())
        cd.anyNonCoded.store(true, std::memory_order_release);
    const std::uint32_t cw = cd.dict.codeWidthBytes();
    std::uint8_t *dst = cd.codes.data() + static_cast<std::size_t>(r) * cw;
    for (std::uint32_t b = 0; b < cw; ++b)
        dst[b] = static_cast<std::uint8_t>(code >> (8 * b));
}

void
TableStore::encodeDictRow(RowId r, std::span<const std::uint8_t> row)
{
    for (ColumnId c = 0; c < dicts_.size(); ++c) {
        if (!dicts_[c])
            continue;
        const auto &col = schema().column(c);
        storeDictCode(c, r,
                      dicts_[c]->dict.encode(row.subspan(
                          schema().canonicalOffset(c), col.width)));
    }
}

void
TableStore::buildDictionaries(std::uint32_t max_cardinality)
{
    if (max_cardinality == 0)
        return;
    const auto &cols = schema().columns();
    dicts_.clear();
    dicts_.resize(cols.size());
    std::vector<std::uint8_t> buf;
    bool any = false;
    for (ColumnId c = 0; c < cols.size(); ++c) {
        const auto &col = cols[c];
        if (col.type != format::ColType::Char)
            continue;
        format::DictionaryBuilder bld(col.width, max_cardinality);
        buf.resize(col.width);
        bool ok = true;
        for (RowId r = 0; r < dataRows_ && ok; ++r) {
            if (!dataVisible_.test(r))
                continue;
            readColumnBytes(Region::Data, c, r, buf);
            ok = bld.add(buf);
        }
        auto dict = std::move(bld).freeze();
        if (!dict)
            continue;
        auto cd = std::make_unique<ColumnDict>(std::move(*dict));
        const std::uint32_t cw = cd->dict.codeWidthBytes();
        // Pre-size for the whole data region; invisible tail rows get
        // the sentinel so a stale read can never index out of range.
        cd->codes.assign(static_cast<std::size_t>(dataRows_) * cw, 0);
        for (RowId r = 0; r < dataRows_; ++r) {
            const std::uint32_t code =
                dataVisible_.test(r)
                    ? (readColumnBytes(Region::Data, c, r, buf),
                       cd->dict.encode(buf))
                    : cd->dict.sentinel();
            std::uint8_t *dst =
                cd->codes.data() + static_cast<std::size_t>(r) * cw;
            for (std::uint32_t b = 0; b < cw; ++b)
                dst[b] = static_cast<std::uint8_t>(code >> (8 * b));
        }
        dicts_[c] = std::move(cd);
        any = true;
        if (dictScratch_.size() < col.width)
            dictScratch_.resize(col.width);
    }
    if (!any)
        dicts_.clear();
}

Bytes
TableStore::regionBytes(Region reg) const
{
    const std::uint64_t rows =
        reg == Region::Data ? dataRows_ : deltaRows_;
    return static_cast<Bytes>(layout_->paddedRowBytes()) * rows;
}

Bytes
TableStore::snapshotStorageBytes() const
{
    return (dataVisible_.storageBytes() +
            deltaVisible_.storageBytes()) *
           layout_->devices();
}

} // namespace pushtap::storage
