#include "format/row_codec.hpp"

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/log.hpp"

namespace pushtap::format {

namespace {

/** Fixed-width little-endian loads the compiler can vectorize. */
template <typename T>
void
decodeFixedStride(const std::uint8_t *base, std::size_t stride,
                  std::span<const std::uint32_t> offsets,
                  std::int64_t *out)
{
    for (std::size_t i = 0; i < offsets.size(); ++i) {
        T v;
        std::memcpy(&v, base + offsets[i] * stride, sizeof(T));
        out[i] = static_cast<std::int64_t>(v);
    }
}

} // namespace

void
decodeIntStride(const Column &col, const std::uint8_t *base,
                std::size_t stride,
                std::span<const std::uint32_t> offsets,
                std::int64_t *out)
{
    if constexpr (std::endian::native == std::endian::little) {
        if (col.type == ColType::Int) {
            switch (col.width) {
              case 1:
                decodeFixedStride<std::int8_t>(base, stride, offsets,
                                               out);
                return;
              case 2:
                decodeFixedStride<std::int16_t>(base, stride, offsets,
                                                out);
                return;
              case 4:
                decodeFixedStride<std::int32_t>(base, stride, offsets,
                                                out);
                return;
              case 8:
                decodeFixedStride<std::int64_t>(base, stride, offsets,
                                                out);
                return;
              default:
                break;
            }
        }
    }
    for (std::size_t i = 0; i < offsets.size(); ++i)
        out[i] = decodeValue(
            col, std::span<const std::uint8_t>(
                     base + offsets[i] * stride, col.width));
}

void
gatherCharsStride(const Column &col, const std::uint8_t *base,
                  std::size_t stride,
                  std::span<const std::uint32_t> offsets,
                  std::uint8_t *out)
{
    for (std::size_t i = 0; i < offsets.size(); ++i)
        std::memcpy(out + i * col.width, base + offsets[i] * stride,
                    col.width);
}

RowCodec::RowCodec(const TableLayout &layout,
                   const BlockCirculant &circulant)
    : layout_(&layout), circulant_(circulant),
      classes_(circulant.enabled() ? circulant.devices() : 1)
{
    const auto &schema = layout.schema();
    const auto &parts = layout.parts();
    const std::uint32_t devices = layout.devices();
    for (std::uint32_t cls = 0; cls < classes_; ++cls) {
        for (std::uint32_t p = 0; p < parts.size(); ++p) {
            for (std::uint32_t s = 0; s < parts[p].slots.size(); ++s) {
                // Row r of class cls holds slot s on device (s + cls)
                // mod d (BlockCirculant::deviceFor).
                const std::uint32_t lane = p * devices + (s + cls) % devices;
                // A fragment that continues the slot's previous copy in
                // the canonical row too extends that copy.
                const std::size_t first = copies_.size();
                std::uint32_t off = 0;
                for (const auto &f : parts[p].slots[s].fragments) {
                    const std::uint32_t canon =
                        schema.canonicalOffset(f.column) + f.byteOffset;
                    if (copies_.size() > first &&
                        copies_.back().canonOffset + copies_.back().bytes ==
                            canon)
                        copies_.back().bytes += f.byteCount;
                    else
                        copies_.push_back({lane, off, canon, f.byteCount});
                    off += f.byteCount;
                }
            }
        }
        if (cls == 0)
            perClass_ = copies_.size();
    }
}

namespace {

/**
 * Copy n bytes between non-overlapping buffers. Up to 16 bytes take
 * two loads of one power-of-two width that cover [0, n) and may
 * overlap each other, so no byte outside [0, n) is read or written;
 * longer copies call memcpy.
 */
inline void
copySmall(std::uint8_t *dst, const std::uint8_t *src, std::uint32_t n)
{
    const auto pair = [&]<typename T>(T) {
        T head, tail;
        std::memcpy(&head, src, sizeof(T));
        std::memcpy(&tail, src + n - sizeof(T), sizeof(T));
        std::memcpy(dst, &head, sizeof(T));
        std::memcpy(dst + n - sizeof(T), &tail, sizeof(T));
    };
    if (n > 16)
        std::memcpy(dst, src, n);
    else if (n >= 8)
        pair(std::uint64_t{});
    else if (n >= 4)
        pair(std::uint32_t{});
    else if (n >= 2)
        pair(std::uint16_t{});
    else if (n == 1)
        *dst = *src;
}

} // namespace

void
RowCodec::checkSizes(const char *op, std::size_t row,
                     std::size_t lanes) const
{
    if (row < layout_->schema().rowBytes())
        panic("{}: row buffer {} < row bytes {}", op, row,
              layout_->schema().rowBytes());
    const std::size_t want =
        layout_->parts().size() * std::size_t{layout_->devices()};
    if (lanes < want)
        panic("{}: {} lanes < {} parts x devices", op, lanes, want);
}

void
RowCodec::scatter(RowId r, std::span<const std::uint8_t> row,
                  std::span<const Lane> lanes) const
{
    checkSizes("scatter", row.size(), lanes.size());
    for (const RowCopy &c : plan(r)) {
        const Lane &lane = lanes[c.lane];
        copySmall(lane.base + r * lane.stride + c.slotOffset,
                  row.data() + c.canonOffset, c.bytes);
    }
}

void
RowCodec::gather(RowId r, std::span<const Lane> lanes,
                 std::span<std::uint8_t> row) const
{
    checkSizes("gather", row.size(), lanes.size());
    for (const RowCopy &c : plan(r)) {
        const Lane &lane = lanes[c.lane];
        copySmall(row.data() + c.canonOffset,
                  lane.base + r * lane.stride + c.slotOffset, c.bytes);
    }
}

std::uint32_t
RowCodec::fragmentsPerRow() const
{
    std::uint32_t n = 0;
    for (const auto &part : layout_->parts())
        for (const auto &slot : part.slots)
            n += static_cast<std::uint32_t>(slot.fragments.size());
    return n;
}

} // namespace pushtap::format
