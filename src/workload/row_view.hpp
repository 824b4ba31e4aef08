#pragma once

/**
 * @file
 * Typed accessors over a canonical packed row buffer: the in-cache
 * representation transactions operate on directly (section 6.3).
 */

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

#include "common/log.hpp"
#include "format/schema.hpp"

namespace pushtap::workload {

/** Read-only view of one canonical row. */
class ConstRowView
{
  public:
    ConstRowView(const format::TableSchema &schema,
                 std::span<const std::uint8_t> bytes)
        : schema_(&schema), bytes_(bytes)
    {
        if (bytes.size() < schema.rowBytes())
            panic("row buffer {} < schema row bytes {}", bytes.size(),
                  schema.rowBytes());
    }

    const format::TableSchema &schema() const { return *schema_; }

    std::int64_t
    getInt(ColumnId id) const
    {
        const auto &col = schema_->column(id);
        return format::decodeValue(
            col, bytes_.subspan(schema_->canonicalOffset(id)));
    }

    std::int64_t
    getInt(std::string_view name) const
    {
        return getInt(schema_->columnId(std::string(name)));
    }

    std::string_view
    getChars(ColumnId id) const
    {
        const auto &col = schema_->column(id);
        return {reinterpret_cast<const char *>(
                    bytes_.data() + schema_->canonicalOffset(id)),
                col.width};
    }

    std::string_view
    getChars(std::string_view name) const
    {
        return getChars(schema_->columnId(std::string(name)));
    }

  private:
    const format::TableSchema *schema_;
    std::span<const std::uint8_t> bytes_;
};

/** Mutable view of one canonical row. */
class RowView
{
  public:
    RowView(const format::TableSchema &schema,
            std::span<std::uint8_t> bytes)
        : schema_(&schema), bytes_(bytes)
    {
        if (bytes.size() < schema.rowBytes())
            panic("row buffer {} < schema row bytes {}", bytes.size(),
                  schema.rowBytes());
    }

    const format::TableSchema &schema() const { return *schema_; }

    void
    setInt(ColumnId id, std::int64_t value)
    {
        const auto &col = schema_->column(id);
        const std::uint32_t off = schema_->canonicalOffset(id);
        auto v = static_cast<std::uint64_t>(value);
        for (std::uint32_t i = 0; i < col.width; ++i) {
            bytes_[off + i] = static_cast<std::uint8_t>(v & 0xff);
            v >>= 8;
        }
    }

    void
    setInt(std::string_view name, std::int64_t value)
    {
        setInt(schema_->columnId(std::string(name)), value);
    }

    void
    setChars(ColumnId id, std::string_view s)
    {
        const auto &col = schema_->column(id);
        const std::uint32_t off = schema_->canonicalOffset(id);
        const std::size_t n =
            std::min<std::size_t>(s.size(), col.width);
        std::memcpy(bytes_.data() + off, s.data(), n);
        if (n < col.width)
            std::memset(bytes_.data() + off + n, 0, col.width - n);
    }

    void
    setChars(std::string_view name, std::string_view s)
    {
        setChars(schema_->columnId(std::string(name)), s);
    }

    ConstRowView
    asConst() const
    {
        return ConstRowView(*schema_, bytes_);
    }

    std::int64_t getInt(ColumnId id) const { return asConst().getInt(id); }

    std::int64_t
    getInt(std::string_view name) const
    {
        return asConst().getInt(name);
    }

  private:
    const format::TableSchema *schema_;
    std::span<std::uint8_t> bytes_;
};

} // namespace pushtap::workload
