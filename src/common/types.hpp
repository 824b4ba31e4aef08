#pragma once

/**
 * @file
 * Fundamental type aliases shared across all PUSHtap modules.
 */

#include <cstdint>
#include <cstddef>

namespace pushtap {

/** Simulated time in nanoseconds (analytic timing model currency). */
using TimeNs = double;

/** Byte counts. */
using Bytes = std::uint64_t;

/** Global row identifier within a table (position in the data region). */
using RowId = std::uint64_t;

/** Transaction timestamp (monotonically increasing commit order). */
using Timestamp = std::uint64_t;

/** Identifier of a column within a table schema. */
using ColumnId = std::uint32_t;

/** Sentinel for "no row". */
inline constexpr RowId kInvalidRow = ~RowId{0};

/** Sentinel for "no timestamp". */
inline constexpr Timestamp kInvalidTimestamp = ~Timestamp{0};

} // namespace pushtap
