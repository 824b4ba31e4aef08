#pragma once

/**
 * @file
 * Byte-level data re-layout (section 6.3): converts between a row's
 * canonical packed representation (what the CPU operates on in cache)
 * and its scattered placement across parts/devices in the unified
 * format. Invoked only when loading a row from DRAM and when pushing
 * a modified row back at commit.
 */

#include <cstdint>
#include <span>

#include "common/log.hpp"
#include "common/types.hpp"
#include "format/block_circulant.hpp"
#include "format/layout.hpp"

namespace pushtap::format {

/**
 * Batch-decode entry points. Both stream one column for a whole
 * selection of rows laid out with a fixed byte stride — the CPU-side
 * analog of a PIM unit's serial column read, and the primitive the
 * morsel executor builds on. `base` points at the selection's first
 * row's column bytes; row offsets[i]'s value lives at
 * base + offsets[i] * stride.
 */

/** Decode (sign-extending Int columns) into out[0..offsets.size()). */
void decodeIntStride(const Column &col, const std::uint8_t *base,
                     std::size_t stride,
                     std::span<const std::uint32_t> offsets,
                     std::int64_t *out);

/** Copy col.width raw bytes per row into out (offsets.size()*width). */
void gatherCharsStride(const Column &col, const std::uint8_t *base,
                       std::size_t stride,
                       std::span<const std::uint32_t> offsets,
                       std::uint8_t *out);

class RowCodec
{
  public:
    RowCodec(const TableLayout &layout, const BlockCirculant &circulant)
        : layout_(&layout), circulant_(circulant)
    {}

    const TableLayout &layout() const { return *layout_; }
    const BlockCirculant &circulant() const { return circulant_; }

    /**
     * Scatter canonical @p row bytes of row @p r to the format:
     * write(part, device, device-local byte offset within the part's
     * region, bytes) once per fragment.
     */
    template <typename Write>
    void
    scatter(RowId r, std::span<const std::uint8_t> row,
            Write &&write) const
    {
        if (row.size() < layout_->schema().rowBytes())
            panic("scatter: row buffer {} < row bytes {}", row.size(),
                  layout_->schema().rowBytes());
        forEachFragment(r, [&](std::uint32_t part, std::uint32_t dev,
                               std::uint64_t off, std::uint32_t canon,
                               std::uint32_t bytes) {
            write(part, dev, off, row.subspan(canon, bytes));
        });
    }

    /**
     * Gather row @p r back into canonical @p row bytes: read(part,
     * device, offset, span) fills each fragment's span.
     */
    template <typename Read>
    void
    gather(RowId r, Read &&read, std::span<std::uint8_t> row) const
    {
        if (row.size() < layout_->schema().rowBytes())
            panic("gather: row buffer {} < row bytes {}", row.size(),
                  layout_->schema().rowBytes());
        forEachFragment(r, [&](std::uint32_t part, std::uint32_t dev,
                               std::uint64_t off, std::uint32_t canon,
                               std::uint32_t bytes) {
            read(part, dev, off, row.subspan(canon, bytes));
        });
    }

    /**
     * Number of distinct byte moves one row re-layout performs (the
     * CPU-side cost driver of the +3.5% OLTP overhead, Fig. 9(a)).
     */
    std::uint32_t fragmentsPerRow() const;

  private:
    /**
     * Visit every fragment of row @p r as (part, device, device-local
     * byte offset, canonical byte offset, byte count).
     */
    template <typename Visit>
    void
    forEachFragment(RowId r, Visit &&visit) const
    {
        const auto &schema = layout_->schema();
        const auto &parts = layout_->parts();
        for (std::uint32_t p = 0; p < parts.size(); ++p) {
            const Part &part = parts[p];
            const std::uint64_t base =
                static_cast<std::uint64_t>(r) * part.rowWidth;
            for (std::uint32_t s = 0; s < part.slots.size(); ++s) {
                const std::uint32_t dev = circulant_.deviceFor(s, r);
                std::uint32_t off = 0;
                for (const auto &f : part.slots[s].fragments) {
                    visit(p, dev, base + off,
                          schema.canonicalOffset(f.column) +
                              f.byteOffset,
                          f.byteCount);
                    off += f.byteCount;
                }
            }
        }
    }

    const TableLayout *layout_;
    BlockCirculant circulant_;
};

} // namespace pushtap::format
