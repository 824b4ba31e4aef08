#pragma once

/**
 * @file
 * Per-column dictionary codec for low-cardinality Char columns.
 *
 * A dictionary is *frozen*: it is built once from the populated rows
 * (load time, single-threaded) and its value table never changes
 * afterwards. Rows written after the freeze are encoded by read-only
 * lookup; a value absent from the frozen table gets the in-range
 * *sentinel* code `cardinality()`, which tells readers to fall back
 * to the raw byte path for that row. This keeps the concurrent-write
 * discipline identical to the byte regions (writers touch only rows
 * that are not yet visible) while predicates evaluate over packed int
 * codes instead of gathered 8-24 byte payloads.
 *
 * Codes are stored little-endian at the narrowest width that can hold
 * `cardinality() + 1` values (sentinel included): 1, 2 or 4 bytes.
 * That width is also what the PIM scan-cost model charges for a
 * dictionary-encoded column scan.
 */

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace pushtap::format {

class ColumnDictionary
{
  public:
    /**
     * Build a frozen dictionary over @p distinct fixed-width values
     * (each exactly @p width bytes, concatenated). Values are sorted
     * bytewise so codes are deterministic for a given value set.
     */
    ColumnDictionary(std::uint32_t width,
                     std::vector<std::string> distinct);

    std::uint32_t width() const { return width_; }
    std::uint32_t cardinality() const { return cardinality_; }

    /** The sentinel code marking "value not in the frozen table". */
    std::uint32_t sentinel() const { return cardinality_; }

    /** Bytes per stored code (narrowest fit for cardinality+1). */
    std::uint32_t codeWidthBytes() const { return codeWidth_; }

    /** Code for @p bytes, or sentinel() if not in the frozen table. */
    std::uint32_t encode(std::span<const std::uint8_t> bytes) const;

    /** Raw bytes of @p code (must be < cardinality()). */
    std::span<const std::uint8_t> value(std::uint32_t code) const;

    /**
     * Evaluate @p pred once per distinct value, producing a match
     * table of `cardinality() + 1` entries (1 = match). The sentinel
     * entry is always 0: rows carrying the sentinel code must be
     * re-evaluated against their raw bytes by the caller.
     */
    std::vector<std::uint32_t> matchTable(
        const std::function<bool(std::span<const std::uint8_t>)>
            &pred) const;

  private:
    /** Transparent hash: encode() probes with a view of the row bytes
     *  instead of building a std::string per call. */
    struct KeyHash
    {
        using is_transparent = void;

        std::size_t
        operator()(std::string_view s) const noexcept
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    std::uint32_t width_;
    std::uint32_t cardinality_;
    std::uint32_t codeWidth_;
    std::vector<std::uint8_t> values_; ///< cardinality * width bytes.
    std::unordered_map<std::string, std::uint32_t, KeyHash,
                       std::equal_to<>>
        codeOf_;
};

/**
 * Incremental distinct-value collector used while scanning a column
 * at build time. Gives up (returns false from add()) as soon as the
 * distinct count exceeds @p max_cardinality, so high-cardinality
 * columns cost one early-exiting pass, not a full scan.
 */
class DictionaryBuilder
{
  public:
    DictionaryBuilder(std::uint32_t width,
                      std::uint32_t max_cardinality)
        : width_(width), maxCardinality_(max_cardinality)
    {
    }

    /** Record one value; false once cardinality exceeds the cap. */
    bool add(std::span<const std::uint8_t> bytes);

    bool overflowed() const { return overflowed_; }

    /** Consume the collected set into a frozen dictionary. */
    std::optional<ColumnDictionary> freeze() &&;

  private:
    std::uint32_t width_;
    std::uint32_t maxCardinality_;
    bool overflowed_ = false;
    std::unordered_map<std::string, std::uint32_t> seen_;
};

} // namespace pushtap::format
