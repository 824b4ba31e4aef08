#include "olap/expr.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/log.hpp"

namespace pushtap::olap {

std::size_t
exprArity(ExprOp op)
{
    switch (op) {
      case ExprOp::IntLit:
      case ExprOp::Column:
      case ExprOp::Like:
      case ExprOp::SubqueryRef:
        return 0;
      case ExprOp::Not:
        return 1;
      case ExprOp::Add:
      case ExprOp::Sub:
      case ExprOp::Mul:
      case ExprOp::Div:
      case ExprOp::Eq:
      case ExprOp::Ne:
      case ExprOp::Lt:
      case ExprOp::Le:
      case ExprOp::Gt:
      case ExprOp::Ge:
      case ExprOp::And:
      case ExprOp::Or:
        return 2;
      case ExprOp::CaseWhen:
        return 3;
    }
    return 0;
}

const char *
exprOpName(ExprOp op)
{
    switch (op) {
      case ExprOp::IntLit: return "literal";
      case ExprOp::Column: return "column";
      case ExprOp::Add: return "+";
      case ExprOp::Sub: return "-";
      case ExprOp::Mul: return "*";
      case ExprOp::Div: return "/";
      case ExprOp::Eq: return "=";
      case ExprOp::Ne: return "<>";
      case ExprOp::Lt: return "<";
      case ExprOp::Le: return "<=";
      case ExprOp::Gt: return ">";
      case ExprOp::Ge: return ">=";
      case ExprOp::And: return "AND";
      case ExprOp::Or: return "OR";
      case ExprOp::Not: return "NOT";
      case ExprOp::Like: return "LIKE";
      case ExprOp::CaseWhen: return "CASE";
      case ExprOp::SubqueryRef: return "subquery";
    }
    return "?";
}

std::int64_t
exprApply(ExprOp op, std::int64_t a, std::int64_t b)
{
    const auto ua = static_cast<std::uint64_t>(a);
    const auto ub = static_cast<std::uint64_t>(b);
    switch (op) {
      case ExprOp::Add:
        return static_cast<std::int64_t>(ua + ub);
      case ExprOp::Sub:
        return static_cast<std::int64_t>(ua - ub);
      case ExprOp::Mul:
        return static_cast<std::int64_t>(ua * ub);
      case ExprOp::Div:
        if (b == 0)
            return 0;
        if (a == std::numeric_limits<std::int64_t>::min() && b == -1)
            return a;
        return a / b;
      case ExprOp::Eq: return a == b ? 1 : 0;
      case ExprOp::Ne: return a != b ? 1 : 0;
      case ExprOp::Lt: return a < b ? 1 : 0;
      case ExprOp::Le: return a <= b ? 1 : 0;
      case ExprOp::Gt: return a > b ? 1 : 0;
      case ExprOp::Ge: return a >= b ? 1 : 0;
      case ExprOp::And: return (a != 0 && b != 0) ? 1 : 0;
      case ExprOp::Or: return (a != 0 || b != 0) ? 1 : 0;
      case ExprOp::Not: return a == 0 ? 1 : 0;
      case ExprOp::IntLit:
      case ExprOp::Column:
      case ExprOp::Like:
      case ExprOp::CaseWhen:
      case ExprOp::SubqueryRef:
        break;
    }
    fatal("exprApply: {} is not a direct arithmetic operator",
          exprOpName(op));
}

bool
likeMatch(std::string_view s, std::string_view pattern)
{
    if (pattern.find('%') == std::string_view::npos)
        return s == pattern;

    // Split into the non-'%' pieces, remembering whether the pattern
    // is anchored at either end.
    const bool front_anchored = !pattern.starts_with('%');
    const bool back_anchored = !pattern.ends_with('%');
    std::vector<std::string_view> pieces;
    std::size_t pos = 0;
    while (pos <= pattern.size()) {
        const auto next = pattern.find('%', pos);
        if (next == std::string_view::npos) {
            if (pos < pattern.size())
                pieces.push_back(pattern.substr(pos));
            break;
        }
        if (next > pos)
            pieces.push_back(pattern.substr(pos, next - pos));
        pos = next + 1;
    }
    if (pieces.empty())
        return true; // all-wildcard pattern

    std::size_t at = 0;   // next unmatched position in s
    std::size_t idx = 0;  // next piece
    std::size_t last = pieces.size();
    if (front_anchored) {
        if (!s.starts_with(pieces[0]))
            return false;
        at = pieces[0].size();
        idx = 1;
    }
    std::string_view tail;
    if (back_anchored && idx <= last - 1) {
        tail = pieces.back();
        --last;
    }
    for (; idx < last; ++idx) {
        const auto found = s.find(pieces[idx], at);
        if (found == std::string_view::npos)
            return false;
        at = found + pieces[idx].size();
    }
    if (!tail.empty()) {
        if (s.size() < at + tail.size())
            return false;
        if (s.substr(s.size() - tail.size()) != tail)
            return false;
    }
    return true;
}

bool
likeMatch(std::span<const std::uint8_t> bytes,
          std::string_view pattern)
{
    const auto *data = reinterpret_cast<const char *>(bytes.data());
    std::size_t len = 0;
    while (len < bytes.size() && data[len] != '\0')
        ++len;
    return likeMatch(std::string_view(data, len), pattern);
}

ExprPtr
foldConstants(const ExprPtr &e)
{
    if (!e)
        return e;
    const auto arity = exprArity(e->op);
    if (arity == 0)
        return e;

    std::vector<ExprPtr> kids;
    kids.reserve(e->kids.size());
    bool changed = false;
    bool all_lit = true;
    for (const auto &k : e->kids) {
        auto folded = foldConstants(k);
        changed |= folded != k;
        all_lit &= folded && folded->op == ExprOp::IntLit;
        kids.push_back(std::move(folded));
    }

    if (all_lit && kids.size() == arity) {
        auto out = std::make_shared<Expr>();
        out->op = ExprOp::IntLit;
        if (e->op == ExprOp::CaseWhen)
            out->lit = kids[0]->lit != 0 ? kids[1]->lit
                                         : kids[2]->lit;
        else
            out->lit = exprApply(e->op, kids[0]->lit,
                                 arity == 2 ? kids[1]->lit : 0);
        return out;
    }
    if (!changed)
        return e;
    auto out = std::make_shared<Expr>(*e);
    out->kids = std::move(kids);
    return out;
}

void
forEachColumnRef(const Expr &e,
                 const std::function<void(const ColRef &, bool)> &fn)
{
    if (e.op == ExprOp::Column)
        fn(e.col, false);
    else if (e.op == ExprOp::Like)
        fn(e.col, true);
    for (const auto &k : e.kids)
        if (k)
            forEachColumnRef(*k, fn);
}

void
forEachSubqueryRef(const Expr &e,
                   const std::function<void(const Expr &)> &fn)
{
    if (e.op == ExprOp::SubqueryRef)
        fn(e);
    for (const auto &k : e.kids)
        if (k)
            forEachSubqueryRef(*k, fn);
}

bool
containsSubqueryRef(const Expr &e)
{
    bool found = false;
    forEachSubqueryRef(e, [&found](const Expr &) { found = true; });
    return found;
}

namespace ex {

namespace {

ExprPtr
node(ExprOp op, std::vector<ExprPtr> kids)
{
    auto e = std::make_shared<Expr>();
    e->op = op;
    e->kids = std::move(kids);
    return e;
}

} // namespace

ExprPtr
lit(std::int64_t v)
{
    auto e = std::make_shared<Expr>();
    e->lit = v;
    return e;
}

ExprPtr
col(std::string column)
{
    return col(ColRef::kProbe, std::move(column));
}

ExprPtr
col(int side, std::string column)
{
    auto e = std::make_shared<Expr>();
    e->op = ExprOp::Column;
    e->col = {side, std::move(column)};
    return e;
}

ExprPtr add(ExprPtr a, ExprPtr b)
{
    return node(ExprOp::Add, {std::move(a), std::move(b)});
}
ExprPtr sub(ExprPtr a, ExprPtr b)
{
    return node(ExprOp::Sub, {std::move(a), std::move(b)});
}
ExprPtr mul(ExprPtr a, ExprPtr b)
{
    return node(ExprOp::Mul, {std::move(a), std::move(b)});
}
ExprPtr div(ExprPtr a, ExprPtr b)
{
    return node(ExprOp::Div, {std::move(a), std::move(b)});
}
ExprPtr eq(ExprPtr a, ExprPtr b)
{
    return node(ExprOp::Eq, {std::move(a), std::move(b)});
}
ExprPtr ne(ExprPtr a, ExprPtr b)
{
    return node(ExprOp::Ne, {std::move(a), std::move(b)});
}
ExprPtr lt(ExprPtr a, ExprPtr b)
{
    return node(ExprOp::Lt, {std::move(a), std::move(b)});
}
ExprPtr le(ExprPtr a, ExprPtr b)
{
    return node(ExprOp::Le, {std::move(a), std::move(b)});
}
ExprPtr gt(ExprPtr a, ExprPtr b)
{
    return node(ExprOp::Gt, {std::move(a), std::move(b)});
}
ExprPtr ge(ExprPtr a, ExprPtr b)
{
    return node(ExprOp::Ge, {std::move(a), std::move(b)});
}
ExprPtr and_(ExprPtr a, ExprPtr b)
{
    return node(ExprOp::And, {std::move(a), std::move(b)});
}
ExprPtr or_(ExprPtr a, ExprPtr b)
{
    return node(ExprOp::Or, {std::move(a), std::move(b)});
}
ExprPtr not_(ExprPtr a)
{
    return node(ExprOp::Not, {std::move(a)});
}

ExprPtr
like(std::string column, std::string pattern)
{
    auto e = std::make_shared<Expr>();
    e->op = ExprOp::Like;
    e->col = {ColRef::kProbe, std::move(column)};
    e->pattern = std::move(pattern);
    return e;
}

ExprPtr
notLike(std::string column, std::string pattern)
{
    return not_(like(std::move(column), std::move(pattern)));
}

ExprPtr
caseWhen(ExprPtr cond, ExprPtr then, ExprPtr otherwise)
{
    return node(ExprOp::CaseWhen,
                {std::move(cond), std::move(then),
                 std::move(otherwise)});
}

ExprPtr
subq(std::size_t subquery, std::size_t agg)
{
    auto e = std::make_shared<Expr>();
    e->op = ExprOp::SubqueryRef;
    e->subquery = subquery;
    e->aggIndex = agg;
    return e;
}

} // namespace ex

} // namespace pushtap::olap
