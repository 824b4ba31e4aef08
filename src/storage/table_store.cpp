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
    auto &store = regionStore(reg);
    codec_.scatter(r, row,
                   [&store](std::uint32_t part, std::uint32_t dev,
                            std::uint64_t off,
                            std::span<const std::uint8_t> data) {
                       std::memcpy(store.parts[part][dev].data() + off,
                                   data.data(), data.size());
                   });
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
    const auto &store = regionStore(reg);
    codec_.gather(r,
                  [&store](std::uint32_t part, std::uint32_t dev,
                           std::uint64_t off,
                           std::span<std::uint8_t> out) {
                      std::memcpy(out.data(),
                                  store.parts[part][dev].data() + off,
                                  out.size());
                  },
                  row);
}

std::int64_t
TableStore::columnValue(Region reg, ColumnId c, RowId r) const
{
    const auto &pl = layout_->keyPlacement(c);
    const auto &col = schema().column(c);
    const auto w = layout_->parts()[pl.part].rowWidth;
    const std::uint32_t dev = circulant_.deviceFor(pl.slot, r);
    const auto &bytes = regionStore(reg).parts[pl.part][dev];
    const std::uint64_t off = r * w + pl.slotOffset;

    return format::decodeValue(
        col, std::span<const std::uint8_t>(bytes).subspan(off));
}

void
TableStore::readColumnBytes(Region reg, ColumnId c, RowId r,
                            std::span<std::uint8_t> out) const
{
    const auto &col = schema().column(c);
    if (out.size() < col.width)
        panic("readColumnBytes: buffer {} < column width {}",
              out.size(), col.width);
    for (const auto &pl : layout_->placements(c)) {
        const auto w = layout_->parts()[pl.part].rowWidth;
        const std::uint32_t dev = circulant_.deviceFor(pl.slot, r);
        const auto &bytes = regionStore(reg).parts[pl.part][dev];
        std::memcpy(out.data() + pl.fragment.byteOffset,
                    bytes.data() + r * w + pl.slotOffset,
                    pl.fragment.byteCount);
    }
}

Bytes
TableStore::copyDeltaToData(RowId from_delta, RowId to_data)
{
    if (!sameRotation(to_data, from_delta))
        panic("defragment copy across rotations: data {} delta {}",
              to_data, from_delta);

    Bytes moved = 0;
    // The rotations match, so for every (part, device) the slot
    // contents align: a pure device-local copy, exactly what the PIM
    // Defragment op does.
    for (std::size_t p = 0; p < layout_->parts().size(); ++p) {
        const auto w = layout_->parts()[p].rowWidth;
        for (std::uint32_t dev = 0; dev < layout_->devices(); ++dev) {
            auto &dst = data_.parts[p][dev];
            const auto &src = delta_.parts[p][dev];
            std::memcpy(dst.data() + to_data * w,
                        src.data() + from_delta * w, w);
            moved += w;
        }
    }
    if (!dicts_.empty()) {
        // Re-encode the dict columns of the refreshed data row from
        // the bytes just copied in (defrag keeps codes in sync).
        for (ColumnId c = 0; c < dicts_.size(); ++c) {
            if (!dicts_[c])
                continue;
            const std::span<std::uint8_t> buf(
                dictScratch_.data(), schema().column(c).width);
            readColumnBytes(Region::Data, c, to_data, buf);
            const std::uint32_t code = dicts_[c]->dict.encode(buf);
            if (code == dicts_[c]->dict.sentinel())
                dicts_[c]->anyNonCoded.store(
                    true, std::memory_order_release);
            const std::uint32_t cw = dicts_[c]->dict.codeWidthBytes();
            std::uint8_t *dst =
                dicts_[c]->codes.data() +
                static_cast<std::size_t>(to_data) * cw;
            for (std::uint32_t b = 0; b < cw; ++b)
                dst[b] = static_cast<std::uint8_t>(code >> (8 * b));
        }
    }
    return moved;
}

void
TableStore::encodeDictRow(RowId r, std::span<const std::uint8_t> row)
{
    for (ColumnId c = 0; c < dicts_.size(); ++c) {
        if (!dicts_[c])
            continue;
        const auto &col = schema().column(c);
        const std::uint32_t code = dicts_[c]->dict.encode(
            row.subspan(schema().canonicalOffset(c), col.width));
        if (code == dicts_[c]->dict.sentinel())
            dicts_[c]->anyNonCoded.store(true,
                                         std::memory_order_release);
        const std::uint32_t cw = dicts_[c]->dict.codeWidthBytes();
        std::uint8_t *dst = dicts_[c]->codes.data() +
                            static_cast<std::size_t>(r) * cw;
        for (std::uint32_t b = 0; b < cw; ++b)
            dst[b] = static_cast<std::uint8_t>(code >> (8 * b));
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
