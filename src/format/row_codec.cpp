#include "format/row_codec.hpp"

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

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
