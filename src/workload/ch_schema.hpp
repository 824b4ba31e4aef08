#pragma once

/**
 * @file
 * CH-benCHmark schema (section 7.1): the nine TPC-C tables, with the
 * TPC-H-derived analytical queries running over them. Column widths
 * follow the TPC-C spec with decimals as integer cents, dates as
 * 8-byte epochs, and the long pseudo-text columns capped at the 152 B
 * maximum width the paper quotes in section 8.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "format/schema.hpp"

namespace pushtap::workload {

/** Table names, canonical order. */
enum class ChTable : std::uint8_t
{
    Warehouse,
    District,
    Customer,
    History,
    NewOrder,
    Orders,
    OrderLine,
    Item,
    Stock,
};

inline constexpr std::size_t kChTableCount = 9;

const char *chTableName(ChTable t);

/** Build the schema of one CH table (no key columns marked yet). */
format::TableSchema chTableSchema(ChTable t);

/** All nine schemas in canonical order. */
std::vector<format::TableSchema> chBenchmarkSchemas();

/**
 * Paper row counts (section 7.1: ITEM/STOCK 20M, CUSTOMER/ORDER/
 * HISTORY 6M, ORDERLINE/NEWORDER 60M) scaled by @p scale, with the
 * warehouse/district counts derived from the customer population.
 */
std::map<ChTable, std::uint64_t> chRowCounts(double scale);

/**
 * HTAPBench schema variant (section 7.2 generality test): TPC-C
 * tables extended per HTAPBench with a wider CUSTOMER and a TPCH-
 * style date dimension folded into ORDERS.
 */
std::vector<format::TableSchema> htapBenchSchemas();

} // namespace pushtap::workload
