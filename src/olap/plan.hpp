#pragma once

/**
 * @file
 * Logical query plans for the CH-benCHmark analytical queries.
 *
 * A plan is pure data: one probe table with pushed-down predicates
 * (closed int-range/char-prefix forms plus arbitrary expression
 * trees, olap/expr.hpp), optional scalar subqueries materialized as
 * a pre-pass, a chain of equi-joins against filtered build tables, a
 * grouped aggregation (plain columns or integer expressions) and an
 * optional sort/limit. The physical operators in olap/operators.hpp
 * execute a plan exactly over the MVCC snapshot bitmaps; planSteps
 * lists the operator steps a plan charges, and the single-instance
 * PIM engine (olap/olap_engine.cpp), the Ideal/MI baselines
 * (htap/analytic_olap.cpp) and the catalog footprint
 * (workload/query_catalog.cpp) all read that one list.
 *
 * The builders in plans:: define all 22 executable CH queries.
 * Q1/Q6/Q9 reproduce the engine's original bespoke code paths
 * exactly; the remaining queries follow the standard CH rewrites —
 * correlated subqueries either flattened to absolute ranges where
 * noted (Q4/Q12) or expressed as uncorrelated scalar-subquery
 * pre-passes (Q17/Q20).
 */

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "olap/expr.hpp"
#include "pim/cost_model.hpp"
#include "workload/ch_gen.hpp"
#include "workload/ch_schema.hpp"

namespace pushtap::olap {

/** Inclusive integer range predicate over one Int column. */
struct IntRange
{
    std::string column;
    std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    std::int64_t hi = std::numeric_limits<std::int64_t>::max();
};

/** Byte-prefix predicate over a Char column. */
struct CharPrefix
{
    std::string column;
    std::string prefix;
    bool negate = false; ///< Keep rows NOT starting with the prefix.
};

/**
 * One input table with its pushed-down predicates. IntRange and
 * CharPrefix are the closed fast-path forms the original engine
 * shipped with (and the batch kernels are specialized for);
 * exprPredicates carries arbitrary boolean expression trees
 * (olap/expr.hpp) whose Column/Like references must name this
 * input's own columns (side == kProbe). Only the probe input's
 * expressions may reference plan subqueries.
 */
struct TableInput
{
    workload::ChTable table{};
    std::vector<IntRange> intPredicates;
    std::vector<CharPrefix> charPredicates;
    std::vector<ExprPtr> exprPredicates;
};

enum class JoinKind : std::uint8_t
{
    Inner, ///< Emit one output per matching build row.
    Semi,  ///< Keep probe rows with at least one match (EXISTS).
    Anti,  ///< Keep probe rows with no match (NOT EXISTS).
};

/**
 * Column cap of every key tuple a plan hashes: a join's equality
 * keys, the group-by list and a scalar subquery's group key. The
 * executor hashes each as one inline int tuple (InlineKey,
 * olap/group_table.hpp); validatePlan rejects wider keys.
 */
inline constexpr std::size_t kMaxKeyColumns = 8;

/** Hash join of a filtered build table against probe-side columns. */
struct JoinSpec
{
    TableInput build;
    JoinKind kind = JoinKind::Inner;
    /** Equality pairs: build column == probe-side reference. */
    std::vector<std::pair<std::string, ColRef>> keys;
    /** Build columns carried downstream (Inner joins only). */
    std::vector<std::string> payload;
};

enum class AggKind : std::uint8_t
{
    Sum,
    Min,
    Max,
};

/**
 * One aggregate (a row count is always kept). The input is `value`
 * (a plain Int column reference — the original closed form) unless
 * `expr` is set, in which case the aggregate folds an arbitrary
 * integer expression over probe columns and earlier inner-join
 * payloads (SUM(amount * (100 - discount)), Q8/Q12-style CASE
 * sums); `value` is then ignored. LIKE leaves may target a probe
 * Char column (CASE WHEN ... LIKE sums; dictionary-accelerated when
 * the column is dict-encoded); subquery references stay
 * predicate-side constructs and are rejected by validatePlan.
 */
struct AggSpec
{
    AggKind kind = AggKind::Sum;
    ColRef value{};
    ExprPtr expr{};
};

/** One aggregate of a scalar subquery (over the source table). */
struct SubqueryAgg
{
    AggKind kind = AggKind::Sum;
    /** Integer expression over source-table columns (input-local);
     *  a row count is `{AggKind::Sum, ex::lit(1)}`. */
    ExprPtr value;
};

/**
 * An uncorrelated scalar subquery evaluated as a pre-pass: the
 * source table is filtered and aggregated per group-key tuple, and
 * the result is materialized into a probe-side lookup before the
 * main pipeline runs. A SubqueryRef expression in the probe's
 * exprPredicates then reads `aggs[aggIndex]` for the group matching
 * the probe row's `keys` values (0 when the group does not exist) —
 * the Q17/Q20 `qty < 0.2 * AVG(qty) per item` shape, with AVG
 * spelled exactly in integers via separate sum and count slots.
 */
struct SubquerySpec
{
    TableInput source;
    /** Group-key columns of the source table (may be empty: one
     *  global scalar group). */
    std::vector<std::string> groupBy;
    std::vector<SubqueryAgg> aggs;
    /** Probe-side key references (side == kProbe), one per groupBy
     *  column, matched positionally against the group-key tuple. */
    std::vector<ColRef> keys;
};

/** One sort criterion over the result rows. */
struct SortKey
{
    enum class Target : std::uint8_t
    {
        GroupKey,  ///< index into QueryPlan::groupBy
        Aggregate, ///< index into QueryPlan::aggregates
        Count,     ///< the per-group row count (index unused)
    };

    Target target = Target::GroupKey;
    std::size_t index = 0;
    bool descending = false;
};

/**
 * A complete logical plan. Result rows are grouped by `groupBy`
 * (exactly one ungrouped row when empty), carry `aggregates` plus a
 * row count, and are ordered by `orderBy` (ascending group keys when
 * empty), truncated to `limit` rows when non-zero.
 */
struct QueryPlan
{
    std::string name;
    TableInput probe;
    std::vector<JoinSpec> joins;
    /** Scalar subqueries materialized before the main pipeline. */
    std::vector<SubquerySpec> subqueries;
    std::vector<ColRef> groupBy;
    std::vector<AggSpec> aggregates;
    std::vector<SortKey> orderBy;
    std::uint64_t limit = 0;
};

/** Table a column reference resolves to. */
workload::ChTable tableOf(const QueryPlan &plan, const ColRef &ref);

/**
 * One operator step of a plan: a serial scan of one column as a
 * Filter, Group, Aggregation or Hash operator, or (op == Join, empty
 * column) the bucket probe of a join against build table `table`.
 */
struct PlanStep
{
    workload::ChTable table{};
    std::string column;
    pim::OpType op = pim::OpType::Filter;
};

/**
 * The plan's operator steps in the order the pricing layers charge
 * them (section 6.2): each subquery pre-pass (source filters, group
 * keys, aggregate inputs, then its distinct probe-side key columns),
 * the probe filters, each join (build filters, both key columns of
 * every key pair, the Join step), the group keys, then each
 * aggregate's distinct columns in (table, column) order. An input
 * lists its Char predicates before its Int ones, then its expression
 * columns; an expression set (an input's predicates, a subquery's
 * aggregate inputs) streams each distinct column once, Char (LIKE)
 * targets first.
 */
std::vector<PlanStep> planSteps(const QueryPlan &plan);

/**
 * Every (table, column) the plan reads: its scan steps. The query
 * catalog derives each CH query's footprint, and so the key columns,
 * from this set (workload::scanFrequencies).
 */
std::set<std::pair<workload::ChTable, std::string>>
touchedColumns(const QueryPlan &plan);

/**
 * Structural validation against the CH schemas: referenced columns
 * exist with the right ColType, join-key/group/aggregate references
 * resolve to the probe table or an earlier Inner join's payload, and
 * no join, group or subquery key is wider than kMaxKeyColumns.
 * fatal() on violation.
 */
void validatePlan(const QueryPlan &plan);

/**
 * EXPLAIN-style text dump of a logical plan: probe predicates,
 * subquery pre-passes, the join chain with kinds and key equalities,
 * grouping, aggregates and sort/limit. One node per line.
 */
std::string describePlan(const QueryPlan &plan);

namespace plans {

/** Q1: pricing summary over ORDERLINE, grouped by ol_number. */
QueryPlan q1(std::int64_t delivery_after = workload::kDateBase);

/** Q6: revenue-change selection over ORDERLINE. */
QueryPlan q6(std::int64_t d_lo = workload::kDateBase,
             std::int64_t d_hi = workload::kDateBase + 2000,
             std::int64_t q_lo = 1, std::int64_t q_hi = 10);

/**
 * Q9: product profit per supply warehouse over the full CH join
 * graph — ORDERLINE semi-joined against the "ORIGINAL" ITEMs, the
 * STOCK row of the supplying warehouse, and the owning ORDERS row
 * within the entry-date window. The default wide-open window keeps
 * the engine's original ITEM x ORDERLINE aggregate values (every
 * order line has a stock and an orders match), while the plan now
 * touches exactly its catalog footprint.
 */
QueryPlan q9(std::int64_t entry_lo =
                 std::numeric_limits<std::int64_t>::min(),
             std::int64_t entry_hi =
                 std::numeric_limits<std::int64_t>::max());

/** Q3: shipping priority — customer x neworder x orders x orderline. */
QueryPlan q3(std::int64_t entry_after = workload::kDateBase,
             std::string state_prefix = "A");

/**
 * Q4: order priority checking. The correlated `ol_delivery_d >=
 * o_entry_d` EXISTS predicate is flattened to an absolute date bound.
 */
QueryPlan q4(std::int64_t entry_lo = workload::kDateBase,
             std::int64_t entry_hi = workload::kDateBase + 4000,
             std::int64_t delivered_after = workload::kDateBase);

/**
 * Q12: shipping mode / order priority. The correlated `o_entry_d <=
 * ol_delivery_d` predicate is flattened to an absolute range.
 */
QueryPlan q12(std::int64_t delivery_lo = workload::kDateBase,
              std::int64_t delivery_hi = workload::kDateBase + 4000,
              std::int64_t carrier_lo = 1,
              std::int64_t carrier_hi = 2);

/** Q14: promotion effect over ITEM x ORDERLINE. */
QueryPlan q14(std::int64_t delivery_lo = workload::kDateBase,
              std::int64_t delivery_hi = workload::kDateBase + 4000);

/** Q19: discounted revenue over ITEM x ORDERLINE. */
QueryPlan q19(std::int64_t q_lo = 1, std::int64_t q_hi = 5,
              std::int64_t w_lo = 0, std::int64_t w_hi = 0,
              std::int64_t price_lo = 100,
              std::int64_t price_hi = 5000);

// The long-tail CH queries below follow the standard CH rewrites
// over the TPC-C schema, expressed with the expression IR where the
// closed predicate/aggregate forms cannot: infix LIKE, CASE sums,
// compound disjunctions and scalar-subquery thresholds. Each plan
// touches exactly its catalog footprint (workload/query_catalog.cpp).

/**
 * Q2: minimum-cost supplier stock summary — STOCK grouped per
 * warehouse against the ORIGINAL items whose name matches an infix
 * LIKE pattern.
 */
QueryPlan q2(std::string name_pattern = "%a%");

/** Q5: local supplier volume — orders x customer x stock legs. */
QueryPlan q5(std::int64_t entry_after = workload::kDateBase,
             std::string state_prefix = "A");

/**
 * Q7: volume shipping — like Q5 but the customer filter is an infix
 * LIKE over c_state and the supplier leg has no district filter.
 */
QueryPlan q7(std::int64_t entry_lo = workload::kDateBase,
             std::int64_t entry_hi = workload::kDateBase + 4000,
             std::string state_pattern = "%A%");

/**
 * Q8: national market share — ungrouped CASE sum: the share of
 * ORIGINAL-item revenue supplied by warehouses [0, share_w_hi] next
 * to the total.
 */
QueryPlan q8(std::int64_t entry_lo = workload::kDateBase,
             std::int64_t entry_hi = workload::kDateBase + 4000,
             std::int64_t share_w_hi = 0,
             std::string state_prefix = "A");

/** Q10: returned-item reporting — top customers by revenue. */
QueryPlan q10(std::int64_t delivery_lo = workload::kDateBase,
              std::int64_t delivery_hi = workload::kDateBase + 4000,
              std::int64_t carrier_lo = 0,
              std::int64_t carrier_hi = 5,
              std::string state_prefix = "A",
              std::string last_pattern = "%BAR%",
              std::string city_pattern = "%a%",
              std::string phone_pattern = "%a%");

/**
 * Q11: important stock identification — per-item inventory value
 * weighted by (1 + s_order_cnt), an expression aggregate over a
 * join-free (fused) scan.
 */
QueryPlan q11(std::uint64_t top = 100);

/** Q13: customer order-count distribution via a carrier window. */
QueryPlan q13(std::int64_t carrier_lo = 1,
              std::int64_t carrier_hi = 5, std::uint64_t top = 20);

/** Q15: top supplier warehouse by revenue in a delivery window. */
QueryPlan q15(std::int64_t delivery_lo = workload::kDateBase,
              std::int64_t delivery_hi = workload::kDateBase + 4000,
              std::uint64_t top = 10);

/**
 * Q16: parts/supplier relationship — stock counts per warehouse of
 * mid-priced items whose i_data does NOT match an infix pattern.
 */
QueryPlan q16(std::int64_t price_lo = 100,
              std::int64_t price_hi = 5000,
              std::string data_not_pattern = "%a%");

/**
 * Q17: small-quantity-order revenue. The correlated
 * `ol_quantity < 0.2 * AVG(ol_quantity) GROUP BY ol_i_id` predicate
 * is an uncorrelated scalar subquery materialized per item; the
 * probe filter compares `5 * qty * count(item) < sum_qty(item)` in
 * exact integer arithmetic.
 */
QueryPlan q17();

/** Q18: large-volume customers — top (customer, ol_cnt) groups. */
QueryPlan q18(std::int64_t entry_lo =
                  std::numeric_limits<std::int64_t>::min(),
              std::int64_t entry_hi =
                  std::numeric_limits<std::int64_t>::max(),
              std::string last_pattern = "%BAR%",
              std::uint64_t top = 100);

/**
 * Q20: potential part promotion — warehouses holding excess stock
 * of ORIGINAL items: `2 * s_quantity > SUM(ol_quantity)` per item
 * over a delivery window (scalar subquery pre-pass).
 */
QueryPlan q20(std::int64_t delivery_lo = workload::kDateBase,
              std::int64_t delivery_hi = workload::kDateBase + 4000);

/**
 * Q21: suppliers who kept orders waiting — per supply warehouse, a
 * CASE sum counting lines delivered more than `delay` after the
 * owning order's entry date (payload reference inside the
 * aggregate expression).
 */
QueryPlan q21(std::int64_t delay = 50);

/** Q22: global sales opportunity — balance of order-less customers
 *  whose phone matches a pattern (anti join). */
QueryPlan q22(std::string phone_pattern = "%a%",
              std::int64_t balance_lo =
                  std::numeric_limits<std::int64_t>::min());

} // namespace plans

} // namespace pushtap::olap
