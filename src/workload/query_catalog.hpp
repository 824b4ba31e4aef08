#pragma once

/**
 * @file
 * The 22 CH-benCHmark analytical queries as executable plans, and
 * the column footprints derived from them.
 *
 * The paper derives key columns from "the columns scanned by frequent
 * analytical queries" (section 4.1.2) and evaluates key-column growth
 * over the subsets Q1, Q1-2, Q1-3, Q1-10, Q1-22 and ALL (Fig. 8(c,d);
 * the Q1 subset has 4 key columns, Q1-3 has 32). Each query's
 * footprint is the (table, column) set its plan reads
 * (olap::touchedColumns), so the plans — the standard CH-benCHmark
 * rewrites of the TPC-H queries over the TPC-C schema — are the one
 * source of both the answers and the key-column model.
 */

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "format/schema.hpp"
#include "olap/plan.hpp"
#include "workload/ch_schema.hpp"

namespace pushtap::workload {

/** One CH query and its executable plan (olap/plan.hpp). */
struct ExecutableQuery
{
    int queryNo;          ///< 1-based TPC-H query number.
    olap::QueryPlan plan; ///< Default-parameter plan.
};

/** All 22 CH queries with executable plans, ordered by query
 *  number. */
const std::vector<ExecutableQuery> &chExecutablePlans();

/**
 * The default-parameter plan of query @p query_no; never null.
 * Fatal when @p query_no is outside [1, 22] (the message names the
 * valid range).
 */
const olap::QueryPlan *executableQueryPlan(int query_no);

/**
 * Per-(table, column) scan frequency over queries [1, n_queries]:
 * how many of the subset's plans touch the column
 * (olap::touchedColumns). Columns never scanned are absent.
 */
std::map<std::pair<ChTable, std::string>, std::uint32_t>
scanFrequencies(int n_queries);

/**
 * Mark key columns on @p schemas for the subset [Q1, Qn]: a column is
 * key iff some query of the subset scans it. Returns the total number
 * of key columns marked.
 */
std::size_t markKeyColumns(std::vector<format::TableSchema> &schemas,
                           int n_queries);

/**
 * HTAPBench analytical footprints (for the section 7.2 generality
 * test): scan frequencies over the HTAPBench query mix. Hand-written
 * data, because that mix has no executable plans here.
 */
std::map<std::pair<ChTable, std::string>, std::uint32_t>
htapBenchScanFrequencies();

} // namespace pushtap::workload
