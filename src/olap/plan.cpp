#include "olap/plan.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace pushtap::olap {

using workload::ChTable;

workload::ChTable
tableOf(const QueryPlan &plan, const ColRef &ref)
{
    if (ref.side == ColRef::kProbe)
        return plan.probe.table;
    return plan.joins.at(static_cast<std::size_t>(ref.side))
        .build.table;
}

std::vector<PlanStep>
planSteps(const QueryPlan &plan)
{
    using pim::OpType;
    std::vector<PlanStep> steps;
    auto scan = [&steps](ChTable table, const std::string &column,
                         OpType op) {
        steps.push_back({table, column, op});
    };
    auto scan_exprs = [&scan](ChTable table,
                              const std::vector<ExprPtr> &exprs,
                              OpType op) {
        std::set<std::string> int_cols, char_cols;
        for (const auto &e : exprs)
            if (e)
                forEachColumnRef(*e, [&](const ColRef &ref,
                                         bool is_char) {
                    (is_char ? char_cols : int_cols).insert(ref.column);
                });
        for (const auto &name : char_cols)
            scan(table, name, op);
        for (const auto &name : int_cols)
            scan(table, name, op);
    };
    auto scan_input = [&](const TableInput &in) {
        for (const auto &p : in.charPredicates)
            scan(in.table, p.column, OpType::Filter);
        for (const auto &p : in.intPredicates)
            scan(in.table, p.column, OpType::Filter);
        scan_exprs(in.table, in.exprPredicates, OpType::Filter);
    };

    for (const auto &sub : plan.subqueries) {
        scan_input(sub.source);
        for (const auto &col : sub.groupBy)
            scan(sub.source.table, col, OpType::Group);
        std::vector<ExprPtr> inputs;
        for (const auto &agg : sub.aggs)
            inputs.push_back(agg.value);
        scan_exprs(sub.source.table, inputs, OpType::Aggregation);
        // The probe-side lookup streams each key column once.
        std::set<std::string> key_cols;
        for (const auto &key : sub.keys)
            key_cols.insert(key.column);
        for (const auto &name : key_cols)
            scan(plan.probe.table, name, OpType::Filter);
    }
    scan_input(plan.probe);
    for (const auto &join : plan.joins) {
        scan_input(join.build);
        for (const auto &[build_col, ref] : join.keys) {
            scan(join.build.table, build_col, OpType::Hash);
            scan(tableOf(plan, ref), ref.column, OpType::Hash);
        }
        steps.push_back({join.build.table, {}, OpType::Join});
    }
    for (const auto &key : plan.groupBy)
        scan(tableOf(plan, key), key.column, OpType::Group);
    for (const auto &agg : plan.aggregates) {
        if (!agg.expr) {
            scan(tableOf(plan, agg.value), agg.value.column,
                 OpType::Aggregation);
            continue;
        }
        std::set<std::pair<ChTable, std::string>> cols;
        forEachColumnRef(*agg.expr, [&cols, &plan](const ColRef &ref,
                                                   bool) {
            cols.emplace(tableOf(plan, ref), ref.column);
        });
        for (const auto &[table, name] : cols)
            scan(table, name, OpType::Aggregation);
    }
    return steps;
}

std::set<std::pair<workload::ChTable, std::string>>
touchedColumns(const QueryPlan &plan)
{
    std::set<std::pair<ChTable, std::string>> touched;
    for (const auto &step : planSteps(plan))
        if (step.op != pim::OpType::Join)
            touched.emplace(step.table, step.column);
    return touched;
}

namespace {

const format::TableSchema &
schemaOf(ChTable t)
{
    static const auto schemas = workload::chBenchmarkSchemas();
    return schemas[static_cast<std::size_t>(t)];
}

void
checkColumn(const QueryPlan &plan, ChTable t, const std::string &name,
            format::ColType type)
{
    const auto &s = schemaOf(t);
    if (!s.hasColumn(name))
        fatal("plan {}: table {} has no column {}", plan.name,
              s.name(), name);
    const auto &col = s.column(s.columnId(name));
    if (col.type != type)
        fatal("plan {}: column {}.{} has the wrong type", plan.name,
              s.name(), name);
}

/** Resolve @p ref against the probe table or joins [0, upto). */
void
checkRef(const QueryPlan &plan, const ColRef &ref, std::size_t upto,
         const char *what)
{
    if (ref.side == ColRef::kProbe) {
        checkColumn(plan, plan.probe.table, ref.column,
                    format::ColType::Int);
        return;
    }
    if (ref.side < 0 ||
        static_cast<std::size_t>(ref.side) >= upto)
        fatal("plan {}: {} references side {} (only the probe and "
              "{} earlier joins are in scope)",
              plan.name, what, ref.side, upto);
    const auto &join = plan.joins[static_cast<std::size_t>(ref.side)];
    if (join.kind != JoinKind::Inner)
        fatal("plan {}: {} references the payload of a non-inner "
              "join", plan.name, what);
    if (std::find(join.payload.begin(), join.payload.end(),
                  ref.column) == join.payload.end())
        fatal("plan {}: {} references column {} absent from join {} "
              "payload", plan.name, what, ref.column, ref.side);
}

/**
 * Expression validation context: input-local expressions resolve
 * columns against one table (side must be kProbe); full-plan
 * (aggregate) expressions resolve through checkRef against the probe
 * and inner-join payloads.
 */
struct ExprScope
{
    bool inputLocal = true;
    workload::ChTable table{}; ///< inputLocal resolution target.
    std::size_t upto = 0;      ///< Full-plan: joins in scope.
    bool allowSubqueries = false;
    const char *what = "expression";
};

void
checkExpr(const QueryPlan &plan, const Expr &e,
          const ExprScope &scope)
{
    if (e.kids.size() != exprArity(e.op))
        fatal("plan {}: {} node '{}' has {} operands (needs {})",
              plan.name, scope.what, exprOpName(e.op), e.kids.size(),
              exprArity(e.op));
    for (const auto &k : e.kids) {
        if (!k)
            fatal("plan {}: {} has a null operand under '{}'",
                  plan.name, scope.what, exprOpName(e.op));
        checkExpr(plan, *k, scope);
    }
    switch (e.op) {
      case ExprOp::Column:
        if (scope.inputLocal) {
            if (e.col.side != ColRef::kProbe)
                fatal("plan {}: {} references side {} but is local "
                      "to one input table",
                      plan.name, scope.what, e.col.side);
            checkColumn(plan, scope.table, e.col.column,
                        format::ColType::Int);
        } else {
            checkRef(plan, e.col, scope.upto, scope.what);
        }
        break;
      case ExprOp::Like:
        if (e.pattern.empty())
            fatal("plan {}: {} has a LIKE with an empty pattern",
                  plan.name, scope.what);
        if (scope.inputLocal) {
            if (e.col.side != ColRef::kProbe)
                fatal("plan {}: {} LIKE references side {} but is "
                      "local to one input table",
                      plan.name, scope.what, e.col.side);
            checkColumn(plan, scope.table, e.col.column,
                        format::ColType::Char);
        } else {
            // Full-plan scope (aggregate expressions): LIKE may
            // target a probe Char column — join payloads carry
            // integers only, so build-side LIKE has nowhere to
            // resolve.
            if (e.col.side != ColRef::kProbe)
                fatal("plan {}: {} LIKE must target a probe Char "
                      "column (payloads are integer-only)",
                      plan.name, scope.what);
            checkColumn(plan, plan.probe.table, e.col.column,
                        format::ColType::Char);
        }
        break;
      case ExprOp::SubqueryRef: {
        if (!scope.allowSubqueries)
            fatal("plan {}: {} may not reference a subquery (only "
                  "probe filters can)",
                  plan.name, scope.what);
        if (e.subquery >= plan.subqueries.size())
            fatal("plan {}: {} references subquery {} (only {} "
                  "defined)",
                  plan.name, scope.what, e.subquery,
                  plan.subqueries.size());
        const auto &sub = plan.subqueries[e.subquery];
        if (e.aggIndex >= sub.aggs.size())
            fatal("plan {}: {} references aggregate {} of subquery "
                  "{} (only {} defined)",
                  plan.name, scope.what, e.aggIndex, e.subquery,
                  sub.aggs.size());
        break;
      }
      default:
        break;
    }
}

void
checkInput(const QueryPlan &plan, const TableInput &in,
           bool is_probe)
{
    // An empty range (lo > hi) is legal: it selects nothing, the
    // way a degenerate query window does.
    for (const auto &p : in.intPredicates)
        checkColumn(plan, in.table, p.column, format::ColType::Int);
    for (const auto &p : in.charPredicates)
        checkColumn(plan, in.table, p.column, format::ColType::Char);
    ExprScope scope;
    scope.table = in.table;
    scope.allowSubqueries = is_probe;
    scope.what = is_probe ? "probe filter" : "build filter";
    for (const auto &e : in.exprPredicates) {
        if (!e)
            fatal("plan {}: {} has a null expression predicate",
                  plan.name, scope.what);
        checkExpr(plan, *e, scope);
    }
}

void
checkSubquery(const QueryPlan &plan, const SubquerySpec &sub,
              std::size_t idx)
{
    checkInput(plan, sub.source, /*is_probe=*/false);
    if (sub.groupBy.size() > kMaxKeyColumns)
        fatal("plan {}: subquery {} has {} group columns (max {})",
              plan.name, idx, sub.groupBy.size(), kMaxKeyColumns);
    for (const auto &col : sub.groupBy)
        checkColumn(plan, sub.source.table, col,
                    format::ColType::Int);
    if (sub.aggs.empty())
        fatal("plan {}: subquery {} has no aggregates", plan.name,
              idx);
    ExprScope agg_scope;
    agg_scope.table = sub.source.table;
    agg_scope.what = "subquery aggregate";
    for (const auto &agg : sub.aggs) {
        if (!agg.value)
            fatal("plan {}: subquery {} has a null aggregate input",
                  plan.name, idx);
        checkExpr(plan, *agg.value, agg_scope);
    }
    if (sub.keys.size() != sub.groupBy.size())
        fatal("plan {}: subquery {} has {} probe keys for {} group "
              "columns",
              plan.name, idx, sub.keys.size(), sub.groupBy.size());
    for (const auto &key : sub.keys) {
        if (key.side != ColRef::kProbe)
            fatal("plan {}: subquery {} key references side {} "
                  "(pre-pass lookups read probe columns only)",
                  plan.name, idx, key.side);
        checkColumn(plan, plan.probe.table, key.column,
                    format::ColType::Int);
    }
}

} // namespace

void
validatePlan(const QueryPlan &plan)
{
    if (plan.name.empty())
        fatal("plan has no name");
    for (std::size_t s = 0; s < plan.subqueries.size(); ++s)
        checkSubquery(plan, plan.subqueries[s], s);
    checkInput(plan, plan.probe, /*is_probe=*/true);
    for (std::size_t k = 0; k < plan.joins.size(); ++k) {
        const auto &join = plan.joins[k];
        checkInput(plan, join.build, /*is_probe=*/false);
        if (join.keys.empty())
            fatal("plan {}: join {} has no equality keys", plan.name,
                  k);
        if (join.keys.size() > kMaxKeyColumns)
            fatal("plan {}: join {} has {} equality keys (max {})",
                  plan.name, k, join.keys.size(), kMaxKeyColumns);
        for (const auto &[build_col, ref] : join.keys) {
            checkColumn(plan, join.build.table, build_col,
                        format::ColType::Int);
            checkRef(plan, ref, k, "join key");
        }
        for (const auto &col : join.payload)
            checkColumn(plan, join.build.table, col,
                        format::ColType::Int);
        if (join.kind != JoinKind::Inner && !join.payload.empty())
            fatal("plan {}: join {} is semi/anti but has a payload",
                  plan.name, k);
    }
    if (plan.groupBy.size() > kMaxKeyColumns)
        fatal("plan {}: {} group columns (max {})", plan.name,
              plan.groupBy.size(), kMaxKeyColumns);
    for (const auto &key : plan.groupBy)
        checkRef(plan, key, plan.joins.size(), "group key");
    for (const auto &agg : plan.aggregates) {
        if (agg.expr) {
            // Full-plan context: probe columns, earlier inner-join
            // payloads, and probe-side LIKE (CASE WHEN ... LIKE
            // sums); no subqueries.
            ExprScope scope;
            scope.inputLocal = false;
            scope.upto = plan.joins.size();
            scope.what = "aggregate expression";
            checkExpr(plan, *agg.expr, scope);
        } else {
            checkRef(plan, agg.value, plan.joins.size(),
                     "aggregate");
        }
    }
    for (const auto &sk : plan.orderBy) {
        const std::size_t bound =
            sk.target == SortKey::Target::GroupKey
                ? plan.groupBy.size()
                : sk.target == SortKey::Target::Aggregate
                      ? plan.aggregates.size()
                      : 1;
        if (sk.target != SortKey::Target::Count && sk.index >= bound)
            fatal("plan {}: sort key index {} out of range",
                  plan.name, sk.index);
    }
}

namespace {

const char *
kindName(JoinKind k)
{
    switch (k) {
      case JoinKind::Inner: return "inner";
      case JoinKind::Semi: return "semi";
      case JoinKind::Anti: return "anti";
    }
    return "?";
}

const char *
aggName(AggKind k)
{
    switch (k) {
      case AggKind::Sum: return "sum";
      case AggKind::Min: return "min";
      case AggKind::Max: return "max";
    }
    return "?";
}

std::string
boundStr(std::int64_t v)
{
    if (v == std::numeric_limits<std::int64_t>::min())
        return "-inf";
    if (v == std::numeric_limits<std::int64_t>::max())
        return "+inf";
    return std::to_string(v);
}

std::string
refStr(const ColRef &ref)
{
    if (ref.side == ColRef::kProbe)
        return "probe." + ref.column;
    return "j" + std::to_string(ref.side) + "." + ref.column;
}

const char *
opSymbol(ExprOp op)
{
    switch (op) {
      case ExprOp::Add: return "+";
      case ExprOp::Sub: return "-";
      case ExprOp::Mul: return "*";
      case ExprOp::Div: return "/";
      case ExprOp::Eq: return "==";
      case ExprOp::Ne: return "!=";
      case ExprOp::Lt: return "<";
      case ExprOp::Le: return "<=";
      case ExprOp::Gt: return ">";
      case ExprOp::Ge: return ">=";
      case ExprOp::And: return "&&";
      case ExprOp::Or: return "||";
      default: return "?";
    }
}

std::string
exprStr(const Expr &e)
{
    switch (e.op) {
      case ExprOp::IntLit:
        return std::to_string(e.lit);
      case ExprOp::Column:
        return e.col.side == ColRef::kProbe ? e.col.column
                                            : refStr(e.col);
      case ExprOp::Like:
        return (e.col.side == ColRef::kProbe ? e.col.column
                                             : refStr(e.col)) +
               " like \"" + e.pattern + "\"";
      case ExprOp::SubqueryRef:
        return "s" + std::to_string(e.subquery) + ".agg" +
               std::to_string(e.aggIndex);
      case ExprOp::Not:
        return "!(" + exprStr(*e.kids[0]) + ")";
      case ExprOp::CaseWhen:
        return "case(" + exprStr(*e.kids[0]) + ", " +
               exprStr(*e.kids[1]) + ", " + exprStr(*e.kids[2]) +
               ")";
      default:
        return "(" + exprStr(*e.kids[0]) + " " + opSymbol(e.op) +
               " " + exprStr(*e.kids[1]) + ")";
    }
}

void
dumpInput(std::ostringstream &os, const TableInput &in,
          const char *indent)
{
    for (const auto &p : in.intPredicates)
        os << indent << "where " << p.column << " in ["
           << boundStr(p.lo) << ", " << boundStr(p.hi) << "]\n";
    for (const auto &p : in.charPredicates)
        os << indent << "where " << (p.negate ? "!" : "")
           << "prefix(" << p.column << ", \"" << p.prefix << "\")\n";
    for (const auto &e : in.exprPredicates)
        if (e)
            os << indent << "where " << exprStr(*e) << "\n";
}

} // namespace

std::string
describePlan(const QueryPlan &plan)
{
    std::ostringstream os;
    os << "plan " << plan.name << "\n";
    os << "  probe " << workload::chTableName(plan.probe.table)
       << "\n";
    dumpInput(os, plan.probe, "    ");
    for (std::size_t s = 0; s < plan.subqueries.size(); ++s) {
        const auto &sub = plan.subqueries[s];
        os << "  subquery s" << s << ": "
           << workload::chTableName(sub.source.table);
        if (!sub.groupBy.empty()) {
            os << " group by (";
            for (std::size_t i = 0; i < sub.groupBy.size(); ++i)
                os << (i ? ", " : "") << sub.groupBy[i];
            os << ")";
        }
        os << "\n";
        dumpInput(os, sub.source, "    ");
        for (const auto &agg : sub.aggs)
            os << "    agg " << aggName(agg.kind) << "("
               << exprStr(*agg.value) << ")\n";
        os << "    keyed on (";
        for (std::size_t i = 0; i < sub.keys.size(); ++i)
            os << (i ? ", " : "") << refStr(sub.keys[i]);
        os << ")\n";
    }
    for (std::size_t k = 0; k < plan.joins.size(); ++k) {
        const auto &join = plan.joins[k];
        os << "  join j" << k << ": " << kindName(join.kind) << " "
           << workload::chTableName(join.build.table) << " on ";
        for (std::size_t i = 0; i < join.keys.size(); ++i) {
            const auto &[build_col, ref] = join.keys[i];
            os << (i ? ", " : "") << build_col << " == "
               << refStr(ref);
        }
        os << "\n";
        dumpInput(os, join.build, "    ");
        if (!join.payload.empty()) {
            os << "    payload (";
            for (std::size_t i = 0; i < join.payload.size(); ++i)
                os << (i ? ", " : "") << join.payload[i];
            os << ")\n";
        }
    }
    if (!plan.groupBy.empty()) {
        os << "  group by ";
        for (std::size_t i = 0; i < plan.groupBy.size(); ++i)
            os << (i ? ", " : "") << refStr(plan.groupBy[i]);
        os << "\n";
    }
    for (const auto &agg : plan.aggregates) {
        os << "  agg " << aggName(agg.kind) << "(";
        if (agg.expr)
            os << exprStr(*agg.expr);
        else
            os << refStr(agg.value);
        os << ")\n";
    }
    if (!plan.orderBy.empty()) {
        os << "  order by ";
        for (std::size_t i = 0; i < plan.orderBy.size(); ++i) {
            const auto &sk = plan.orderBy[i];
            os << (i ? ", " : "");
            switch (sk.target) {
              case SortKey::Target::GroupKey:
                os << "key" << sk.index;
                break;
              case SortKey::Target::Aggregate:
                os << "agg" << sk.index;
                break;
              case SortKey::Target::Count:
                os << "count";
                break;
            }
            os << (sk.descending ? " desc" : " asc");
        }
        os << "\n";
    }
    if (plan.limit != 0)
        os << "  limit " << plan.limit << "\n";
    return os.str();
}

namespace plans {

namespace {

/** The never-matching range (lo > hi selects nothing). */
IntRange
emptyRange(const char *column)
{
    return {column, 0, -1};
}

} // namespace

QueryPlan
q1(std::int64_t delivery_after)
{
    QueryPlan p;
    p.name = "Q1";
    p.probe.table = ChTable::OrderLine;
    // Strictly-greater-than as an inclusive range; nothing is
    // greater than INT64_MAX.
    p.probe.intPredicates = {
        delivery_after == std::numeric_limits<std::int64_t>::max()
            ? emptyRange("ol_delivery_d")
            : IntRange{"ol_delivery_d", delivery_after + 1,
                       std::numeric_limits<std::int64_t>::max()}};
    p.groupBy = {{ColRef::kProbe, "ol_number"}};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_quantity"}},
                    {AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    return p;
}

QueryPlan
q6(std::int64_t d_lo, std::int64_t d_hi, std::int64_t q_lo,
   std::int64_t q_hi)
{
    QueryPlan p;
    p.name = "Q6";
    p.probe.table = ChTable::OrderLine;
    // The engine's historical Q6 takes a half-open delivery range;
    // nothing is below INT64_MIN.
    p.probe.intPredicates = {
        d_hi == std::numeric_limits<std::int64_t>::min()
            ? emptyRange("ol_delivery_d")
            : IntRange{"ol_delivery_d", d_lo, d_hi - 1},
        {"ol_quantity", q_lo, q_hi}};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    return p;
}

QueryPlan
q9(std::int64_t entry_lo, std::int64_t entry_hi)
{
    QueryPlan p;
    p.name = "Q9";
    p.probe.table = ChTable::OrderLine;

    // Tests rely on the item semi join staying join 0.
    JoinSpec items;
    items.build.table = ChTable::Item;
    items.build.charPredicates = {{"i_data", "ORIGINAL", false}};
    items.kind = JoinKind::Semi;
    items.keys = {{"i_id", {ColRef::kProbe, "ol_i_id"}}};

    // The supplying warehouse must stock the item (one STOCK row per
    // (warehouse, item) pair).
    JoinSpec stock;
    stock.build.table = ChTable::Stock;
    stock.kind = JoinKind::Semi;
    stock.keys = {{"s_i_id", {ColRef::kProbe, "ol_i_id"}},
                  {"s_w_id", {ColRef::kProbe, "ol_supply_w_id"}}};

    // The owning order, restricted to the entry-date window (the
    // full CH Q9 buckets profit by order year). Joined on the full
    // composite order key: o_id alone is not unique across
    // districts (see Q12), which would make the window vacuous.
    JoinSpec orders;
    orders.build.table = ChTable::Orders;
    orders.build.intPredicates = {{"o_entry_d", entry_lo, entry_hi}};
    orders.kind = JoinKind::Semi;
    orders.keys = {{"o_id", {ColRef::kProbe, "ol_o_id"}},
                   {"o_d_id", {ColRef::kProbe, "ol_d_id"}},
                   {"o_w_id", {ColRef::kProbe, "ol_w_id"}}};

    p.joins = {std::move(items), std::move(stock),
               std::move(orders)};
    p.groupBy = {{ColRef::kProbe, "ol_supply_w_id"}};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    return p;
}

QueryPlan
q3(std::int64_t entry_after, std::string state_prefix)
{
    QueryPlan p;
    p.name = "Q3";
    p.probe.table = ChTable::OrderLine;

    JoinSpec pending;
    pending.build.table = ChTable::NewOrder;
    pending.kind = JoinKind::Semi;
    pending.keys = {{"no_o_id", {ColRef::kProbe, "ol_o_id"}},
                    {"no_d_id", {ColRef::kProbe, "ol_d_id"}},
                    {"no_w_id", {ColRef::kProbe, "ol_w_id"}}};

    JoinSpec orders;
    orders.build.table = ChTable::Orders;
    orders.build.intPredicates = {
        {"o_entry_d", entry_after,
         std::numeric_limits<std::int64_t>::max()}};
    orders.kind = JoinKind::Inner;
    orders.keys = {{"o_id", {ColRef::kProbe, "ol_o_id"}},
                   {"o_d_id", {ColRef::kProbe, "ol_d_id"}},
                   {"o_w_id", {ColRef::kProbe, "ol_w_id"}}};
    orders.payload = {"o_c_id", "o_entry_d"};

    JoinSpec customers;
    customers.build.table = ChTable::Customer;
    customers.build.charPredicates = {
        {"c_state", std::move(state_prefix), false}};
    customers.kind = JoinKind::Semi;
    customers.keys = {{"c_id", {1, "o_c_id"}},
                      {"c_d_id", {ColRef::kProbe, "ol_d_id"}},
                      {"c_w_id", {ColRef::kProbe, "ol_w_id"}}};

    p.joins = {std::move(pending), std::move(orders),
               std::move(customers)};
    p.groupBy = {{ColRef::kProbe, "ol_o_id"},
                 {ColRef::kProbe, "ol_d_id"},
                 {ColRef::kProbe, "ol_w_id"},
                 {1, "o_entry_d"}};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    p.orderBy = {{SortKey::Target::Aggregate, 0, true}};
    p.limit = 10;
    return p;
}

QueryPlan
q4(std::int64_t entry_lo, std::int64_t entry_hi,
   std::int64_t delivered_after)
{
    QueryPlan p;
    p.name = "Q4";
    p.probe.table = ChTable::Orders;
    p.probe.intPredicates = {{"o_entry_d", entry_lo, entry_hi}};

    JoinSpec lines;
    lines.build.table = ChTable::OrderLine;
    lines.build.intPredicates = {
        {"ol_delivery_d", delivered_after,
         std::numeric_limits<std::int64_t>::max()}};
    lines.kind = JoinKind::Semi;
    lines.keys = {{"ol_o_id", {ColRef::kProbe, "o_id"}},
                  {"ol_d_id", {ColRef::kProbe, "o_d_id"}},
                  {"ol_w_id", {ColRef::kProbe, "o_w_id"}}};
    p.joins = {std::move(lines)};

    p.groupBy = {{ColRef::kProbe, "o_ol_cnt"}};
    return p;
}

QueryPlan
q12(std::int64_t delivery_lo, std::int64_t delivery_hi,
    std::int64_t carrier_lo, std::int64_t carrier_hi)
{
    QueryPlan p;
    p.name = "Q12";
    p.probe.table = ChTable::OrderLine;
    p.probe.intPredicates = {
        {"ol_delivery_d", delivery_lo, delivery_hi}};

    JoinSpec orders;
    orders.build.table = ChTable::Orders;
    orders.build.intPredicates = {
        {"o_entry_d", std::numeric_limits<std::int64_t>::min(),
         delivery_hi},
        {"o_carrier_id", carrier_lo, carrier_hi}};
    orders.kind = JoinKind::Inner;
    // Composite order key: o_id alone is not unique across
    // districts (each district's runtime counter overlaps the seed
    // id range), exactly why CH Q12 joins on the full triple.
    orders.keys = {{"o_id", {ColRef::kProbe, "ol_o_id"}},
                   {"o_d_id", {ColRef::kProbe, "ol_d_id"}},
                   {"o_w_id", {ColRef::kProbe, "ol_w_id"}}};
    orders.payload = {"o_ol_cnt"};
    p.joins = {std::move(orders)};

    p.groupBy = {{0, "o_ol_cnt"}};
    return p;
}

QueryPlan
q14(std::int64_t delivery_lo, std::int64_t delivery_hi)
{
    QueryPlan p;
    p.name = "Q14";
    p.probe.table = ChTable::OrderLine;
    p.probe.intPredicates = {
        {"ol_delivery_d", delivery_lo, delivery_hi}};

    JoinSpec items;
    items.build.table = ChTable::Item;
    items.build.charPredicates = {{"i_data", "ORIGINAL", false}};
    items.kind = JoinKind::Semi;
    items.keys = {{"i_id", {ColRef::kProbe, "ol_i_id"}}};
    p.joins = {std::move(items)};

    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    return p;
}

QueryPlan
q19(std::int64_t q_lo, std::int64_t q_hi, std::int64_t w_lo,
    std::int64_t w_hi, std::int64_t price_lo, std::int64_t price_hi)
{
    QueryPlan p;
    p.name = "Q19";
    p.probe.table = ChTable::OrderLine;
    p.probe.intPredicates = {{"ol_quantity", q_lo, q_hi},
                             {"ol_w_id", w_lo, w_hi}};

    JoinSpec items;
    items.build.table = ChTable::Item;
    items.build.intPredicates = {{"i_price", price_lo, price_hi}};
    items.build.charPredicates = {{"i_data", "ORIGINAL", false}};
    items.kind = JoinKind::Semi;
    items.keys = {{"i_id", {ColRef::kProbe, "ol_i_id"}}};
    p.joins = {std::move(items)};

    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    return p;
}

QueryPlan
q2(std::string name_pattern)
{
    QueryPlan p;
    p.name = "Q2";
    p.probe.table = ChTable::Stock;

    JoinSpec items;
    items.build.table = ChTable::Item;
    items.build.charPredicates = {{"i_data", "ORIGINAL", false}};
    items.build.exprPredicates = {
        ex::like("i_name", std::move(name_pattern))};
    items.kind = JoinKind::Semi;
    items.keys = {{"i_id", {ColRef::kProbe, "s_i_id"}}};
    p.joins = {std::move(items)};

    p.groupBy = {{ColRef::kProbe, "s_w_id"}};
    p.aggregates = {
        {AggKind::Min, {ColRef::kProbe, "s_quantity"}},
        {AggKind::Sum, {ColRef::kProbe, "s_ytd"}},
        {AggKind::Sum, {ColRef::kProbe, "s_order_cnt"}}};
    return p;
}

QueryPlan
q5(std::int64_t entry_after, std::string state_prefix)
{
    QueryPlan p;
    p.name = "Q5";
    p.probe.table = ChTable::OrderLine;

    // CH Q5 joins ORDERS on the bare order id; the composite-key
    // uniqueness refinement is deliberate to Q12/Q9 only.
    JoinSpec orders;
    orders.build.table = ChTable::Orders;
    orders.build.intPredicates = {
        {"o_entry_d", entry_after,
         std::numeric_limits<std::int64_t>::max()}};
    orders.kind = JoinKind::Inner;
    orders.keys = {{"o_id", {ColRef::kProbe, "ol_o_id"}}};
    orders.payload = {"o_c_id"};

    JoinSpec customers;
    customers.build.table = ChTable::Customer;
    customers.build.intPredicates = {
        {"c_d_id", 0, 9},
        {"c_w_id", 0, std::numeric_limits<std::int64_t>::max()}};
    customers.build.charPredicates = {
        {"c_state", std::move(state_prefix), false}};
    customers.kind = JoinKind::Semi;
    customers.keys = {{"c_id", {0, "o_c_id"}}};

    JoinSpec stock;
    stock.build.table = ChTable::Stock;
    stock.build.intPredicates = {
        {"s_i_id", 0, std::numeric_limits<std::int64_t>::max()}};
    stock.kind = JoinKind::Semi;
    stock.keys = {{"s_w_id", {ColRef::kProbe, "ol_supply_w_id"}}};

    p.joins = {std::move(orders), std::move(customers),
               std::move(stock)};
    p.groupBy = {{ColRef::kProbe, "ol_supply_w_id"}};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    p.orderBy = {{SortKey::Target::Aggregate, 0, true}};
    return p;
}

QueryPlan
q7(std::int64_t entry_lo, std::int64_t entry_hi,
   std::string state_pattern)
{
    QueryPlan p;
    p.name = "Q7";
    p.probe.table = ChTable::OrderLine;

    JoinSpec orders;
    orders.build.table = ChTable::Orders;
    orders.build.intPredicates = {{"o_entry_d", entry_lo, entry_hi}};
    orders.kind = JoinKind::Inner;
    orders.keys = {{"o_id", {ColRef::kProbe, "ol_o_id"}}};
    orders.payload = {"o_c_id"};

    JoinSpec customers;
    customers.build.table = ChTable::Customer;
    customers.build.exprPredicates = {
        ex::like("c_state", std::move(state_pattern))};
    customers.kind = JoinKind::Semi;
    customers.keys = {{"c_id", {0, "o_c_id"}}};

    JoinSpec stock;
    stock.build.table = ChTable::Stock;
    stock.build.intPredicates = {
        {"s_i_id", 0, std::numeric_limits<std::int64_t>::max()}};
    stock.kind = JoinKind::Semi;
    stock.keys = {{"s_w_id", {ColRef::kProbe, "ol_supply_w_id"}}};

    p.joins = {std::move(orders), std::move(customers),
               std::move(stock)};
    p.groupBy = {{ColRef::kProbe, "ol_supply_w_id"}};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    return p;
}

QueryPlan
q8(std::int64_t entry_lo, std::int64_t entry_hi,
   std::int64_t share_w_hi, std::string state_prefix)
{
    QueryPlan p;
    p.name = "Q8";
    p.probe.table = ChTable::OrderLine;

    JoinSpec items;
    items.build.table = ChTable::Item;
    items.build.charPredicates = {{"i_data", "ORIGINAL", false}};
    items.kind = JoinKind::Semi;
    items.keys = {{"i_id", {ColRef::kProbe, "ol_i_id"}}};

    JoinSpec orders;
    orders.build.table = ChTable::Orders;
    orders.build.intPredicates = {{"o_entry_d", entry_lo, entry_hi}};
    orders.kind = JoinKind::Inner;
    orders.keys = {{"o_id", {ColRef::kProbe, "ol_o_id"}}};
    orders.payload = {"o_c_id"};

    JoinSpec customers;
    customers.build.table = ChTable::Customer;
    customers.build.charPredicates = {
        {"c_state", std::move(state_prefix), false}};
    customers.kind = JoinKind::Semi;
    customers.keys = {{"c_id", {1, "o_c_id"}}};

    p.joins = {std::move(items), std::move(orders),
               std::move(customers)};
    // Market share as a CASE sum: revenue supplied by warehouses
    // [0, share_w_hi] next to the total revenue.
    AggSpec share;
    share.kind = AggKind::Sum;
    share.expr = ex::caseWhen(
        ex::le(ex::col("ol_supply_w_id"), ex::lit(share_w_hi)),
        ex::col("ol_amount"), ex::lit(0));
    p.aggregates = {std::move(share),
                    {AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    return p;
}

QueryPlan
q10(std::int64_t delivery_lo, std::int64_t delivery_hi,
    std::int64_t carrier_lo, std::int64_t carrier_hi,
    std::string state_prefix, std::string last_pattern,
    std::string city_pattern, std::string phone_pattern)
{
    QueryPlan p;
    p.name = "Q10";
    p.probe.table = ChTable::OrderLine;
    p.probe.intPredicates = {
        {"ol_delivery_d", delivery_lo, delivery_hi}};

    JoinSpec orders;
    orders.build.table = ChTable::Orders;
    orders.build.intPredicates = {
        {"o_entry_d", std::numeric_limits<std::int64_t>::min(),
         delivery_hi},
        {"o_carrier_id", carrier_lo, carrier_hi}};
    orders.kind = JoinKind::Inner;
    orders.keys = {{"o_id", {ColRef::kProbe, "ol_o_id"}}};
    orders.payload = {"o_c_id"};

    JoinSpec customers;
    customers.build.table = ChTable::Customer;
    customers.build.charPredicates = {
        {"c_state", std::move(state_prefix), false}};
    // A disjunctive LIKE pair plus a second conjunct: the shape the
    // closed char-prefix predicates cannot express.
    customers.build.exprPredicates = {
        ex::or_(ex::like("c_last", std::move(last_pattern)),
                ex::like("c_city", std::move(city_pattern))),
        ex::like("c_phone", std::move(phone_pattern))};
    customers.kind = JoinKind::Semi;
    customers.keys = {{"c_id", {0, "o_c_id"}}};

    p.joins = {std::move(orders), std::move(customers)};
    p.groupBy = {{0, "o_c_id"}};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    p.orderBy = {{SortKey::Target::Aggregate, 0, true}};
    p.limit = 20;
    return p;
}

QueryPlan
q11(std::uint64_t top)
{
    QueryPlan p;
    p.name = "Q11";
    p.probe.table = ChTable::Stock;
    p.probe.intPredicates = {
        {"s_w_id", 0, std::numeric_limits<std::int64_t>::max()}};
    p.groupBy = {{ColRef::kProbe, "s_i_id"}};
    // Inventory value weighted by order activity: an expression
    // aggregate folded inside the fused join-free scan.
    AggSpec value;
    value.kind = AggKind::Sum;
    value.expr = ex::mul(ex::col("s_quantity"),
                         ex::add(ex::lit(1),
                                 ex::col("s_order_cnt")));
    p.aggregates = {std::move(value)};
    p.orderBy = {{SortKey::Target::Aggregate, 0, true}};
    p.limit = top;
    return p;
}

QueryPlan
q13(std::int64_t carrier_lo, std::int64_t carrier_hi,
    std::uint64_t top)
{
    QueryPlan p;
    p.name = "Q13";
    p.probe.table = ChTable::Orders;
    p.probe.intPredicates = {
        {"o_carrier_id", carrier_lo, carrier_hi},
        {"o_id", 0, std::numeric_limits<std::int64_t>::max()}};

    JoinSpec customers;
    customers.build.table = ChTable::Customer;
    customers.build.intPredicates = {
        {"c_d_id", 0, 9},
        {"c_w_id", 0, std::numeric_limits<std::int64_t>::max()}};
    customers.kind = JoinKind::Semi;
    customers.keys = {{"c_id", {ColRef::kProbe, "o_c_id"}}};
    p.joins = {std::move(customers)};

    p.groupBy = {{ColRef::kProbe, "o_c_id"}};
    p.orderBy = {{SortKey::Target::Count, 0, true}};
    p.limit = top;
    return p;
}

QueryPlan
q15(std::int64_t delivery_lo, std::int64_t delivery_hi,
    std::uint64_t top)
{
    QueryPlan p;
    p.name = "Q15";
    p.probe.table = ChTable::OrderLine;
    p.probe.intPredicates = {
        {"ol_delivery_d", delivery_lo, delivery_hi}};

    JoinSpec stock;
    stock.build.table = ChTable::Stock;
    stock.kind = JoinKind::Semi;
    stock.keys = {{"s_i_id", {ColRef::kProbe, "ol_i_id"}},
                  {"s_w_id", {ColRef::kProbe, "ol_supply_w_id"}}};
    p.joins = {std::move(stock)};

    p.groupBy = {{ColRef::kProbe, "ol_supply_w_id"}};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    p.orderBy = {{SortKey::Target::Aggregate, 0, true}};
    p.limit = top;
    return p;
}

QueryPlan
q16(std::int64_t price_lo, std::int64_t price_hi,
    std::string data_not_pattern)
{
    QueryPlan p;
    p.name = "Q16";
    p.probe.table = ChTable::Stock;

    JoinSpec items;
    items.build.table = ChTable::Item;
    items.build.intPredicates = {{"i_price", price_lo, price_hi}};
    items.build.exprPredicates = {
        ex::notLike("i_data", std::move(data_not_pattern))};
    items.kind = JoinKind::Semi;
    items.keys = {{"i_id", {ColRef::kProbe, "s_i_id"}}};
    p.joins = {std::move(items)};

    p.groupBy = {{ColRef::kProbe, "s_w_id"}};
    p.orderBy = {{SortKey::Target::Count, 0, true}};
    return p;
}

QueryPlan
q17()
{
    QueryPlan p;
    p.name = "Q17";
    p.probe.table = ChTable::OrderLine;

    // Per-item quantity statistics, materialized before the probe
    // pass: slot 0 = SUM(ol_quantity), slot 1 = COUNT(*).
    SubquerySpec stats;
    stats.source.table = ChTable::OrderLine;
    stats.groupBy = {"ol_i_id"};
    stats.aggs = {{AggKind::Sum, ex::col("ol_quantity")},
                  {AggKind::Sum, ex::lit(1)}};
    stats.keys = {{ColRef::kProbe, "ol_i_id"}};
    p.subqueries = {std::move(stats)};

    // qty < 0.2 * AVG(qty) per item, exactly in integers:
    // 5 * qty * count < sum.
    p.probe.exprPredicates = {
        ex::lt(ex::mul(ex::lit(5),
                       ex::mul(ex::col("ol_quantity"),
                               ex::subq(0, 1))),
               ex::subq(0, 0))};

    JoinSpec items;
    items.build.table = ChTable::Item;
    items.build.charPredicates = {{"i_data", "ORIGINAL", false}};
    items.kind = JoinKind::Semi;
    items.keys = {{"i_id", {ColRef::kProbe, "ol_i_id"}}};
    p.joins = {std::move(items)};

    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    return p;
}

QueryPlan
q18(std::int64_t entry_lo, std::int64_t entry_hi,
    std::string last_pattern, std::uint64_t top)
{
    QueryPlan p;
    p.name = "Q18";
    p.probe.table = ChTable::OrderLine;

    JoinSpec orders;
    orders.build.table = ChTable::Orders;
    orders.build.intPredicates = {{"o_entry_d", entry_lo, entry_hi}};
    orders.kind = JoinKind::Inner;
    orders.keys = {{"o_id", {ColRef::kProbe, "ol_o_id"}}};
    orders.payload = {"o_c_id", "o_ol_cnt"};

    JoinSpec customers;
    customers.build.table = ChTable::Customer;
    customers.build.exprPredicates = {
        ex::like("c_last", std::move(last_pattern))};
    customers.kind = JoinKind::Semi;
    customers.keys = {{"c_id", {0, "o_c_id"}}};

    p.joins = {std::move(orders), std::move(customers)};
    p.groupBy = {{0, "o_c_id"}, {0, "o_ol_cnt"}};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
    p.orderBy = {{SortKey::Target::Aggregate, 0, true}};
    p.limit = top;
    return p;
}

QueryPlan
q20(std::int64_t delivery_lo, std::int64_t delivery_hi)
{
    QueryPlan p;
    p.name = "Q20";
    p.probe.table = ChTable::Stock;

    // Quantity shipped per item inside the delivery window.
    SubquerySpec shipped;
    shipped.source.table = ChTable::OrderLine;
    shipped.source.intPredicates = {
        {"ol_delivery_d", delivery_lo, delivery_hi}};
    shipped.groupBy = {"ol_i_id"};
    shipped.aggs = {{AggKind::Sum, ex::col("ol_quantity")}};
    shipped.keys = {{ColRef::kProbe, "s_i_id"}};
    p.subqueries = {std::move(shipped)};

    // Excess stock: s_quantity > 0.5 * shipped, in integers. Items
    // never shipped in the window aggregate to 0, so any stocked
    // warehouse qualifies — the promotion-candidate reading.
    p.probe.exprPredicates = {
        ex::gt(ex::mul(ex::lit(2), ex::col("s_quantity")),
               ex::subq(0, 0))};

    JoinSpec items;
    items.build.table = ChTable::Item;
    items.build.charPredicates = {{"i_data", "ORIGINAL", false}};
    items.kind = JoinKind::Semi;
    items.keys = {{"i_id", {ColRef::kProbe, "s_i_id"}}};
    p.joins = {std::move(items)};

    p.groupBy = {{ColRef::kProbe, "s_w_id"}};
    return p;
}

QueryPlan
q21(std::int64_t delay)
{
    QueryPlan p;
    p.name = "Q21";
    p.probe.table = ChTable::OrderLine;

    JoinSpec orders;
    orders.build.table = ChTable::Orders;
    orders.kind = JoinKind::Inner;
    orders.keys = {{"o_id", {ColRef::kProbe, "ol_o_id"}}};
    orders.payload = {"o_entry_d"};

    JoinSpec stock;
    stock.build.table = ChTable::Stock;
    stock.build.intPredicates = {
        {"s_i_id", 0, std::numeric_limits<std::int64_t>::max()}};
    stock.kind = JoinKind::Semi;
    stock.keys = {{"s_w_id", {ColRef::kProbe, "ol_supply_w_id"}}};

    p.joins = {std::move(orders), std::move(stock)};
    p.groupBy = {{ColRef::kProbe, "ol_supply_w_id"}};
    // Late-delivery count per supplier warehouse: a CASE sum whose
    // condition compares a probe column against an inner-join
    // payload column.
    AggSpec late;
    late.kind = AggKind::Sum;
    late.expr = ex::caseWhen(
        ex::gt(ex::col("ol_delivery_d"),
               ex::add(ex::col(0, "o_entry_d"), ex::lit(delay))),
        ex::lit(1), ex::lit(0));
    p.aggregates = {std::move(late)};
    p.orderBy = {{SortKey::Target::Aggregate, 0, true}};
    return p;
}

QueryPlan
q22(std::string phone_pattern, std::int64_t balance_lo)
{
    QueryPlan p;
    p.name = "Q22";
    p.probe.table = ChTable::Customer;
    p.probe.intPredicates = {
        {"c_balance", balance_lo,
         std::numeric_limits<std::int64_t>::max()}};
    p.probe.exprPredicates = {
        ex::like("c_phone", std::move(phone_pattern))};

    // Customers with no orders at all (NOT EXISTS).
    JoinSpec orders;
    orders.build.table = ChTable::Orders;
    orders.build.intPredicates = {
        {"o_id", 0, std::numeric_limits<std::int64_t>::max()}};
    orders.kind = JoinKind::Anti;
    orders.keys = {{"o_c_id", {ColRef::kProbe, "c_id"}}};
    p.joins = {std::move(orders)};

    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "c_balance"}}};
    return p;
}

} // namespace plans

} // namespace pushtap::olap
