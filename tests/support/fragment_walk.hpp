#pragma once

/**
 * @file
 * The row re-layout spelled out fragment by fragment, as the codec
 * did before it compiled copy plans: for every part, every slot of
 * the part on the device the block-circulant rotation gives it for
 * the row, and every fragment of the slot, copy the fragment's bytes
 * between the slot and the canonical row. The codec and storage
 * suites check RowCodec's plans and TableStore's lane copies against
 * it, byte for byte. LaneBuffers holds one region's per-(part,
 * device) bytes with the lane table the codec reads.
 */

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "format/block_circulant.hpp"
#include "format/layout.hpp"
#include "format/row_codec.hpp"

namespace pushtap::testsupport {

/**
 * Visit every fragment of row @p r as (lane = part * devices +
 * device, offset of the fragment inside the row's slot, canonical
 * byte offset, byte count), in layout order.
 */
template <typename Visit>
void
forEachFragment(const format::TableLayout &layout,
                const format::BlockCirculant &circ, RowId r, Visit &&visit)
{
    const auto &schema = layout.schema();
    const auto &parts = layout.parts();
    for (std::uint32_t p = 0; p < parts.size(); ++p) {
        for (std::uint32_t s = 0; s < parts[p].slots.size(); ++s) {
            const std::uint32_t lane =
                p * layout.devices() + circ.deviceFor(s, r);
            std::uint32_t off = 0;
            for (const auto &f : parts[p].slots[s].fragments) {
                visit(lane, off,
                      schema.canonicalOffset(f.column) + f.byteOffset,
                      f.byteCount);
                off += f.byteCount;
            }
        }
    }
}

/** One region's lane bytes for @p rows rows of a layout. */
class LaneBuffers
{
  public:
    LaneBuffers(const format::TableLayout &layout, RowId rows,
                std::uint8_t fill)
    {
        for (const auto &part : layout.parts())
            for (std::uint32_t d = 0; d < layout.devices(); ++d)
                bytes_.emplace_back(rows * part.rowWidth, fill);
        std::size_t i = 0;
        for (const auto &part : layout.parts())
            for (std::uint32_t d = 0; d < layout.devices(); ++d)
                lanes_.push_back({bytes_[i++].data(), part.rowWidth});
    }

    LaneBuffers(const LaneBuffers &) = delete;
    LaneBuffers &operator=(const LaneBuffers &) = delete;

    std::span<const format::Lane> lanes() const { return lanes_; }

    /** Lane @p l's bytes, all rows. */
    const std::vector<std::uint8_t> &
    bytes(std::size_t l) const
    {
        return bytes_[l];
    }

    std::size_t laneCount() const { return lanes_.size(); }

    /** Write @p row as row @p r fragment by fragment. */
    void
    referenceScatter(const format::TableLayout &layout,
                     const format::BlockCirculant &circ, RowId r,
                     std::span<const std::uint8_t> row)
    {
        forEachFragment(layout, circ, r,
                        [&](std::uint32_t lane, std::uint32_t off,
                            std::uint32_t canon, std::uint32_t n) {
                            const format::Lane &l = lanes_[lane];
                            std::memcpy(l.base + r * l.stride + off,
                                        row.data() + canon, n);
                        });
    }

  private:
    std::vector<std::vector<std::uint8_t>> bytes_;
    std::vector<format::Lane> lanes_;
};

} // namespace pushtap::testsupport
