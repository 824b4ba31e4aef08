#pragma once

/**
 * @file
 * Naive reference executor for logical query plans. The plan
 * *semantics* are the shared specification; the mechanisms that have
 * room to hide bugs are deliberately different from the engine's
 * (olap::executePlan):
 *
 *  - row visibility: version chains (Database::readNewest) instead
 *    of snapshot bitmaps walked as morsel selection vectors,
 *  - column access: canonical row views instead of per-morsel typed
 *    column decodes (stride reads, fragment gathers, dictionary
 *    codes) over the storage layout,
 *  - join keys and groups: int tuples in ordered maps instead of
 *    inline-key tuples in flat hash-partitioned group tables and
 *    dense arrays,
 *  - match expansion: breadth-first context lists per row instead
 *    of batched per-morsel match vectors,
 *  - expressions: direct recursion over ConstRowView values with an
 *    independently-written arithmetic switch and a recursive
 *    backtracking LIKE matcher (the engine evaluates trees
 *    column-at-a-time through vectorized kernels and matches LIKE by
 *    anchored piece scanning or dictionary match tables),
 *  - scalar subqueries: ordered maps keyed by int-tuple vectors
 *    instead of the engine's inline-key group-table lookups.
 *
 * Aggregate accumulation, the orderBy/limit step, and the IR's
 * value semantics (wrapping arithmetic, guarded division, NUL-
 * truncated LIKE payloads, missing-group = 0) are direct
 * transcriptions of the spec in both executors, so defects there
 * would be shared; the operator suites pin those behaviors with
 * independent direct assertions (explicit ordering checks,
 * hand-computed Min/Max, literal LIKE tables) instead.
 *
 * The property suites assert that every plan-based query's
 * aggregates exactly match this executor over the same snapshot.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "olap/plan.hpp"
#include "txn/database.hpp"
#include "workload/row_view.hpp"

namespace pushtap::testsupport {

struct RefRow
{
    std::vector<std::int64_t> keys;
    std::vector<std::int64_t> aggs;
    std::uint64_t count = 0;
};

/** Materialized scalar subqueries: key tuple -> aggregate values. */
using RefSubqueryTables = std::vector<
    std::map<std::vector<std::int64_t>, std::vector<std::int64_t>>>;

namespace detail {

/** Independently-written IR arithmetic (wrap / guarded division). */
inline std::int64_t
refArith(olap::ExprOp op, std::int64_t a, std::int64_t b)
{
    using olap::ExprOp;
    const auto ua = static_cast<std::uint64_t>(a);
    const auto ub = static_cast<std::uint64_t>(b);
    switch (op) {
      case ExprOp::Add: return static_cast<std::int64_t>(ua + ub);
      case ExprOp::Sub: return static_cast<std::int64_t>(ua - ub);
      case ExprOp::Mul: return static_cast<std::int64_t>(ua * ub);
      case ExprOp::Div:
        if (b == 0)
            return 0;
        if (a == std::numeric_limits<std::int64_t>::min() &&
            b == -1)
            return a;
        return a / b;
      case ExprOp::Eq: return a == b;
      case ExprOp::Ne: return a != b;
      case ExprOp::Lt: return a < b;
      case ExprOp::Le: return a <= b;
      case ExprOp::Gt: return a > b;
      case ExprOp::Ge: return a >= b;
      case ExprOp::And: return a != 0 && b != 0;
      case ExprOp::Or: return a != 0 || b != 0;
      default: return 0;
    }
}

/** Recursive backtracking '%' matcher (the engine scans anchored
 *  pieces instead). */
inline bool
refLike(std::string_view s, std::string_view pat)
{
    if (pat.empty())
        return s.empty();
    if (pat.front() == '%') {
        for (std::size_t k = 0; k <= s.size(); ++k)
            if (refLike(s.substr(k), pat.substr(1)))
                return true;
        return false;
    }
    if (s.empty() || s.front() != pat.front())
        return false;
    return refLike(s.substr(1), pat.substr(1));
}

/** Char payload truncated at the first NUL (the IR's LIKE view). */
inline std::string_view
trimNul(std::string_view s)
{
    const auto nul = s.find('\0');
    return nul == std::string_view::npos ? s : s.substr(0, nul);
}

/**
 * Input-local expression evaluation over one canonical row.
 * @p plan/@p subs are set only for the probe input (subquery
 * lookups resolve probe-side key columns against the same row).
 */
inline std::int64_t
refEvalLocal(const olap::Expr &e, const workload::ConstRowView &v,
             const olap::QueryPlan *plan,
             const RefSubqueryTables *subs)
{
    using olap::ExprOp;
    switch (e.op) {
      case ExprOp::IntLit:
        return e.lit;
      case ExprOp::Column:
        return v.getInt(e.col.column);
      case ExprOp::Like:
        return refLike(trimNul(v.getChars(e.col.column)),
                       e.pattern);
      case ExprOp::SubqueryRef: {
        std::vector<std::int64_t> key;
        for (const auto &k : plan->subqueries[e.subquery].keys)
            key.push_back(v.getInt(k.column));
        const auto &table = (*subs)[e.subquery];
        const auto it = table.find(key);
        return it == table.end()
                   ? 0
                   : it->second[e.aggIndex];
      }
      case ExprOp::Not:
        return refEvalLocal(*e.kids[0], v, plan, subs) == 0;
      case ExprOp::CaseWhen:
        return refEvalLocal(*e.kids[0], v, plan, subs) != 0
                   ? refEvalLocal(*e.kids[1], v, plan, subs)
                   : refEvalLocal(*e.kids[2], v, plan, subs);
      default:
        return refArith(e.op,
                        refEvalLocal(*e.kids[0], v, plan, subs),
                        refEvalLocal(*e.kids[1], v, plan, subs));
    }
}

/** Full-plan expression evaluation (aggregate expressions): columns
 *  resolve through @p resolve, LIKE reads the probe row @p probe
 *  (validation confines it to probe Char columns); subqueries cannot
 *  appear. */
template <typename Resolve>
std::int64_t
refEvalFull(const olap::Expr &e, const workload::ConstRowView &probe,
            Resolve &&resolve)
{
    using olap::ExprOp;
    switch (e.op) {
      case ExprOp::IntLit:
        return e.lit;
      case ExprOp::Column:
        return resolve(e.col);
      case ExprOp::Like:
        return refLike(trimNul(probe.getChars(e.col.column)),
                       e.pattern);
      case ExprOp::Not:
        return refEvalFull(*e.kids[0], probe, resolve) == 0;
      case ExprOp::CaseWhen:
        return refEvalFull(*e.kids[0], probe, resolve) != 0
                   ? refEvalFull(*e.kids[1], probe, resolve)
                   : refEvalFull(*e.kids[2], probe, resolve);
      default:
        return refArith(e.op, refEvalFull(*e.kids[0], probe, resolve),
                        refEvalFull(*e.kids[1], probe, resolve));
    }
}

inline bool
passes(const workload::ConstRowView &v, const olap::TableInput &in,
       const olap::QueryPlan *plan = nullptr,
       const RefSubqueryTables *subs = nullptr)
{
    for (const auto &p : in.intPredicates) {
        const auto x = v.getInt(p.column);
        if (x < p.lo || x > p.hi)
            return false;
    }
    for (const auto &p : in.charPredicates) {
        const bool match = v.getChars(p.column).substr(
                               0, p.prefix.size()) == p.prefix;
        if (match == p.negate)
            return false;
    }
    for (const auto &e : in.exprPredicates)
        if (refEvalLocal(*e, v, plan, subs) == 0)
            return false;
    return true;
}

/** All newest-version canonical rows of a table, chain-resolved. */
inline std::vector<std::vector<std::uint8_t>>
materialize(txn::Database &db, workload::ChTable t)
{
    const auto &tbl = db.table(t);
    std::vector<std::vector<std::uint8_t>> rows(
        tbl.usedDataRows(),
        std::vector<std::uint8_t>(tbl.schema().rowBytes()));
    for (RowId r = 0; r < rows.size(); ++r)
        db.readNewest(t, r, rows[r]);
    return rows;
}

} // namespace detail

/**
 * Execute @p plan over the newest committed versions. Result rows
 * are ordered like the operator pipeline's: ascending group keys,
 * then plan.orderBy / plan.limit.
 */
inline std::vector<RefRow>
referenceExecute(txn::Database &db, const olap::QueryPlan &plan)
{
    using olap::ColRef;
    using olap::JoinKind;

    // Scalar subqueries: grouped aggregates over the materialized
    // source rows, keyed by int-tuple vectors in ordered maps.
    RefSubqueryTables subqueries;
    for (const auto &spec : plan.subqueries) {
        const auto &schema = db.table(spec.source.table).schema();
        std::map<std::vector<std::int64_t>,
                 std::pair<std::vector<std::int64_t>,
                           std::uint64_t>>
            groups;
        for (const auto &bytes :
             detail::materialize(db, spec.source.table)) {
            const workload::ConstRowView v(schema, bytes);
            if (!detail::passes(v, spec.source))
                continue;
            std::vector<std::int64_t> key;
            for (const auto &col : spec.groupBy)
                key.push_back(v.getInt(col));
            auto &[aggs, count] = groups[key];
            if (count == 0)
                aggs.assign(spec.aggs.size(), 0);
            for (std::size_t a = 0; a < spec.aggs.size(); ++a) {
                const auto x = detail::refEvalLocal(
                    *spec.aggs[a].value, v, nullptr, nullptr);
                switch (spec.aggs[a].kind) {
                  case olap::AggKind::Sum:
                    aggs[a] = detail::refArith(olap::ExprOp::Add,
                                               aggs[a], x);
                    break;
                  case olap::AggKind::Min:
                    aggs[a] =
                        count == 0 ? x : std::min(aggs[a], x);
                    break;
                  case olap::AggKind::Max:
                    aggs[a] =
                        count == 0 ? x : std::max(aggs[a], x);
                    break;
                }
            }
            ++count;
        }
        auto &table = subqueries.emplace_back();
        for (auto &[key, acc] : groups)
            table.emplace(key, std::move(acc.first));
    }

    // Build sides: key tuple -> payload tuples (empty marker for
    // semi/anti existence).
    std::vector<std::map<std::vector<std::int64_t>,
                         std::vector<std::vector<std::int64_t>>>>
        builds(plan.joins.size());
    for (std::size_t k = 0; k < plan.joins.size(); ++k) {
        const auto &join = plan.joins[k];
        const auto &schema = db.table(join.build.table).schema();
        for (const auto &bytes :
             detail::materialize(db, join.build.table)) {
            const workload::ConstRowView v(schema, bytes);
            if (!detail::passes(v, join.build))
                continue;
            std::vector<std::int64_t> key;
            for (const auto &[build_col, ref] : join.keys) {
                (void)ref;
                key.push_back(v.getInt(build_col));
            }
            auto &bucket = builds[k][key];
            if (join.kind == JoinKind::Inner) {
                std::vector<std::int64_t> tuple;
                for (const auto &col : join.payload)
                    tuple.push_back(v.getInt(col));
                bucket.push_back(std::move(tuple));
            } else if (bucket.empty()) {
                bucket.emplace_back();
            }
        }
    }

    const auto &probe_schema = db.table(plan.probe.table).schema();
    struct Acc
    {
        std::vector<std::int64_t> aggs;
        std::uint64_t count = 0;
    };
    std::map<std::vector<std::int64_t>, Acc> groups;

    // One context = the chosen build match per inner join so far.
    using Ctx = std::vector<const std::vector<std::int64_t> *>;

    for (const auto &bytes :
         detail::materialize(db, plan.probe.table)) {
        const workload::ConstRowView v(probe_schema, bytes);
        if (!detail::passes(v, plan.probe, &plan, &subqueries))
            continue;

        auto resolve = [&](const Ctx &ctx, const ColRef &ref) {
            if (ref.side == ColRef::kProbe)
                return v.getInt(ref.column);
            const auto &payload =
                plan.joins[static_cast<std::size_t>(ref.side)]
                    .payload;
            const auto idx = static_cast<std::size_t>(
                std::find(payload.begin(), payload.end(),
                          ref.column) -
                payload.begin());
            return (*ctx[static_cast<std::size_t>(ref.side)])[idx];
        };

        // Breadth-first join expansion, level by level.
        std::vector<Ctx> contexts{Ctx(plan.joins.size(), nullptr)};
        for (std::size_t k = 0;
             k < plan.joins.size() && !contexts.empty(); ++k) {
            std::vector<Ctx> next;
            for (const auto &ctx : contexts) {
                std::vector<std::int64_t> key;
                for (const auto &[build_col, ref] :
                     plan.joins[k].keys) {
                    (void)build_col;
                    key.push_back(resolve(ctx, ref));
                }
                const auto it = builds[k].find(key);
                const bool found =
                    it != builds[k].end() && !it->second.empty();
                switch (plan.joins[k].kind) {
                  case JoinKind::Semi:
                    if (found)
                        next.push_back(ctx);
                    break;
                  case JoinKind::Anti:
                    if (!found)
                        next.push_back(ctx);
                    break;
                  case JoinKind::Inner:
                    if (!found)
                        break;
                    for (const auto &tuple : it->second) {
                        Ctx c = ctx;
                        c[k] = &tuple;
                        next.push_back(std::move(c));
                    }
                    break;
                }
            }
            contexts = std::move(next);
        }

        for (const auto &ctx : contexts) {
            std::vector<std::int64_t> key;
            for (const auto &g : plan.groupBy)
                key.push_back(resolve(ctx, g));
            auto &acc = groups[key];
            if (acc.count == 0)
                acc.aggs.assign(plan.aggregates.size(), 0);
            for (std::size_t i = 0; i < plan.aggregates.size();
                 ++i) {
                const auto &spec = plan.aggregates[i];
                const auto x =
                    spec.expr
                        ? detail::refEvalFull(
                              *spec.expr, v,
                              [&](const ColRef &ref) {
                                  return resolve(ctx, ref);
                              })
                        : resolve(ctx, spec.value);
                switch (plan.aggregates[i].kind) {
                  case olap::AggKind::Sum:
                    acc.aggs[i] = detail::refArith(
                        olap::ExprOp::Add, acc.aggs[i], x);
                    break;
                  case olap::AggKind::Min:
                    acc.aggs[i] = acc.count == 0
                                      ? x
                                      : std::min(acc.aggs[i], x);
                    break;
                  case olap::AggKind::Max:
                    acc.aggs[i] = acc.count == 0
                                      ? x
                                      : std::max(acc.aggs[i], x);
                    break;
                }
            }
            ++acc.count;
        }
    }

    if (plan.groupBy.empty() && groups.empty())
        groups[{}] = Acc{std::vector<std::int64_t>(
                             plan.aggregates.size(), 0),
                         0};

    std::vector<RefRow> rows;
    rows.reserve(groups.size());
    for (auto &[key, acc] : groups)
        rows.push_back(RefRow{key, std::move(acc.aggs), acc.count});

    if (!plan.orderBy.empty()) {
        std::stable_sort(
            rows.begin(), rows.end(),
            [&plan](const RefRow &a, const RefRow &b) {
                for (const auto &sk : plan.orderBy) {
                    std::int64_t av = 0, bv = 0;
                    switch (sk.target) {
                      case olap::SortKey::Target::GroupKey:
                        av = a.keys[sk.index];
                        bv = b.keys[sk.index];
                        break;
                      case olap::SortKey::Target::Aggregate:
                        av = a.aggs[sk.index];
                        bv = b.aggs[sk.index];
                        break;
                      case olap::SortKey::Target::Count:
                        av = static_cast<std::int64_t>(a.count);
                        bv = static_cast<std::int64_t>(b.count);
                        break;
                    }
                    if (av != bv)
                        return sk.descending ? av > bv : av < bv;
                }
                return false;
            });
    }
    if (plan.limit != 0 && rows.size() > plan.limit)
        rows.resize(plan.limit);
    return rows;
}

} // namespace pushtap::testsupport
