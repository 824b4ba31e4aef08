#pragma once

/**
 * @file
 * Scalar expression IR of the logical query plans.
 *
 * A typed expression tree over 64-bit integers: column references,
 * literals, wrapping arithmetic, comparisons, boolean logic, a
 * '%'-wildcard LIKE over Char columns, CASE WHEN, and references
 * into uncorrelated scalar subqueries (per-group aggregates
 * materialized as a pre-pass lookup, Q17/Q20 style). Plans embed
 * expressions in three places (olap/plan.hpp):
 *
 *  - TableInput::exprPredicates — boolean filters over one input
 *    table (probe or join build side); only the probe's filters may
 *    reference subqueries,
 *  - AggSpec::expr — an integer aggregate input over probe columns
 *    and earlier inner-join payloads (SUM(amount * (100 - disc)),
 *    CASE sums); LIKE may target a probe Char column, subquery
 *    references are predicate-only,
 *  - SubquerySpec aggregate inputs — over the subquery source table.
 *
 * Evaluation semantics are fixed here so the vectorized kernels
 * (batch.cpp, simd_kernels.cpp) and the naive test reference
 * evaluator cannot diverge:
 *
 *  - every value is an int64; comparisons and logic yield 0/1 and
 *    any nonzero operand counts as true,
 *  - Add/Sub/Mul wrap (two's complement — defined behavior under
 *    the sanitizers and identical in every executor),
 *  - Div truncates toward zero; x/0 == 0 and INT64_MIN/-1 ==
 *    INT64_MIN (no traps, no UB),
 *  - LIKE treats the fixed-width column payload as a byte string
 *    truncated at the first NUL and supports only the '%' wildcard
 *    (prefix, suffix, infix and multi-piece patterns),
 *  - a SubqueryRef whose key tuple has no group in the materialized
 *    subquery evaluates to 0.
 *
 * Trees are held by shared_ptr-to-const: plans copy cheaply and
 * compiled executors can alias subtrees safely.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pushtap::olap {

/**
 * Reference to a column of one of the plan's inputs: the probe table
 * (side == kProbe) or the payload of an earlier join (side == index
 * into QueryPlan::joins; the column must be in that join's payload).
 * Inside a TableInput's own predicates the side must be kProbe and
 * means "this input's table".
 */
struct ColRef
{
    static constexpr int kProbe = -1;

    int side = kProbe;
    std::string column;

    bool operator==(const ColRef &) const = default;
};

enum class ExprOp : std::uint8_t
{
    IntLit, ///< Leaf: `lit`.
    Column, ///< Leaf: Int column `col`.
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Not,
    Like,        ///< Leaf: Char column `col` LIKE `pattern`.
    CaseWhen,    ///< kids = {condition, then, else}.
    SubqueryRef, ///< Leaf: plan.subqueries[subquery].aggs[aggIndex].
};

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

struct Expr
{
    ExprOp op = ExprOp::IntLit;
    std::int64_t lit = 0;     ///< IntLit payload.
    ColRef col;               ///< Column / Like target.
    std::string pattern;      ///< Like pattern ('%' wildcards).
    std::size_t subquery = 0; ///< SubqueryRef: QueryPlan::subqueries.
    std::size_t aggIndex = 0; ///< SubqueryRef: aggregate slot.
    std::vector<ExprPtr> kids;
};

/** Operand count an operator requires (0 for the leaves). */
std::size_t exprArity(ExprOp op);

/** Human-readable operator name for diagnostics. */
const char *exprOpName(ExprOp op);

/**
 * The shared arithmetic/comparison/logic semantics: apply a non-leaf,
 * non-CaseWhen binary operator (And/Or included — evaluated eagerly,
 * which conjunction and disjunction permit because expressions are
 * side-effect free). Not is unary: pass the operand as @p a.
 */
std::int64_t exprApply(ExprOp op, std::int64_t a, std::int64_t b = 0);

/**
 * exprApply for one binary operator fixed at compile time: the step
 * exprApply dispatches to, and the batch evaluator's per-operator
 * loops run.
 */
template <ExprOp Op>
constexpr std::int64_t
exprApplyOp(std::int64_t a, std::int64_t b)
{
    using U = std::uint64_t;
    if constexpr (Op == ExprOp::Add)
        return static_cast<std::int64_t>(U(a) + U(b));
    else if constexpr (Op == ExprOp::Sub)
        return static_cast<std::int64_t>(U(a) - U(b));
    else if constexpr (Op == ExprOp::Mul)
        return static_cast<std::int64_t>(U(a) * U(b));
    else if constexpr (Op == ExprOp::Div) {
        if (b == 0)
            return 0;
        if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
            return a;
        return a / b;
    } else if constexpr (Op == ExprOp::Eq)
        return a == b ? 1 : 0;
    else if constexpr (Op == ExprOp::Ne)
        return a != b ? 1 : 0;
    else if constexpr (Op == ExprOp::Lt)
        return a < b ? 1 : 0;
    else if constexpr (Op == ExprOp::Le)
        return a <= b ? 1 : 0;
    else if constexpr (Op == ExprOp::Gt)
        return a > b ? 1 : 0;
    else if constexpr (Op == ExprOp::Ge)
        return a >= b ? 1 : 0;
    else if constexpr (Op == ExprOp::And)
        return (a != 0 && b != 0) ? 1 : 0;
    else {
        static_assert(Op == ExprOp::Or, "not a binary operator");
        return (a != 0 || b != 0) ? 1 : 0;
    }
}

/**
 * '%'-wildcard LIKE over a fixed-width Char payload: the effective
 * string is @p bytes truncated at the first NUL. Patterns without a
 * '%' must match exactly.
 */
bool likeMatch(std::span<const std::uint8_t> bytes,
               std::string_view pattern);

/** likeMatch over an already-truncated string (test references). */
bool likeMatch(std::string_view s, std::string_view pattern);

/**
 * Fold every all-literal subtree into an IntLit (using exprApply, so
 * folding preserves the wrap/division semantics exactly). Returns
 * @p e itself when nothing folds.
 */
ExprPtr foldConstants(const ExprPtr &e);

/**
 * Visit every column reference of @p e: fn(ref, is_char) with
 * is_char true for LIKE targets. Subquery references visit nothing
 * here — the plan layer walks SubquerySpec explicitly.
 */
void forEachColumnRef(
    const Expr &e,
    const std::function<void(const ColRef &, bool)> &fn);

/** Visit every SubqueryRef node of @p e. */
void forEachSubqueryRef(
    const Expr &e, const std::function<void(const Expr &)> &fn);

/** True when any node of @p e is a SubqueryRef. */
bool containsSubqueryRef(const Expr &e);

/** Expression builders (the plan-definition DSL). */
namespace ex {

ExprPtr lit(std::int64_t v);
/** Int column of the enclosing input table / the probe. */
ExprPtr col(std::string column);
/** Int column of an earlier inner join's payload (full contexts). */
ExprPtr col(int side, std::string column);
ExprPtr add(ExprPtr a, ExprPtr b);
ExprPtr sub(ExprPtr a, ExprPtr b);
ExprPtr mul(ExprPtr a, ExprPtr b);
ExprPtr div(ExprPtr a, ExprPtr b);
ExprPtr eq(ExprPtr a, ExprPtr b);
ExprPtr ne(ExprPtr a, ExprPtr b);
ExprPtr lt(ExprPtr a, ExprPtr b);
ExprPtr le(ExprPtr a, ExprPtr b);
ExprPtr gt(ExprPtr a, ExprPtr b);
ExprPtr ge(ExprPtr a, ExprPtr b);
ExprPtr and_(ExprPtr a, ExprPtr b);
ExprPtr or_(ExprPtr a, ExprPtr b);
ExprPtr not_(ExprPtr a);
/** Char column of the enclosing input table LIKE @p pattern. */
ExprPtr like(std::string column, std::string pattern);
ExprPtr notLike(std::string column, std::string pattern);
ExprPtr caseWhen(ExprPtr cond, ExprPtr then, ExprPtr otherwise);
/** Value of subquery @p subquery's aggregate slot @p agg. */
ExprPtr subq(std::size_t subquery, std::size_t agg);

} // namespace ex

} // namespace pushtap::olap
