#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "olap/expr.hpp"
#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "support/expect_rows.hpp"
#include "txn/tpcc_engine.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::olap {
namespace {

using txn::Database;
using txn::DatabaseConfig;
using txn::InstanceFormat;
using txn::TpccEngine;
using workload::ChTable;

DatabaseConfig
smallConfig()
{
    DatabaseConfig cfg;
    cfg.scale = 0.0002;
    cfg.blockRows = 64;
    cfg.deltaFraction = 3.0;
    cfg.insertHeadroom = 1.0;
    return cfg;
}

// ---- IR semantics --------------------------------------------------

TEST(ExprSemantics, ArithmeticWrapsAndDivisionIsGuarded)
{
    const auto min = std::numeric_limits<std::int64_t>::min();
    const auto max = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(exprApply(ExprOp::Add, max, 1), min); // wrap
    EXPECT_EQ(exprApply(ExprOp::Sub, min, 1), max); // wrap
    EXPECT_EQ(exprApply(ExprOp::Mul, max, 2), -2);  // wrap
    EXPECT_EQ(exprApply(ExprOp::Div, 7, 2), 3);
    EXPECT_EQ(exprApply(ExprOp::Div, -7, 2), -3); // toward zero
    EXPECT_EQ(exprApply(ExprOp::Div, 42, 0), 0);  // guarded
    EXPECT_EQ(exprApply(ExprOp::Div, min, -1), min);
    EXPECT_EQ(exprApply(ExprOp::And, 5, -3), 1);
    EXPECT_EQ(exprApply(ExprOp::And, 5, 0), 0);
    EXPECT_EQ(exprApply(ExprOp::Or, 0, 0), 0);
    EXPECT_EQ(exprApply(ExprOp::Not, 7, 0), 0);
    EXPECT_EQ(exprApply(ExprOp::Not, 0, 0), 1);
}

TEST(ExprSemantics, LikeMatchAnchorsAndWildcards)
{
    // (string, pattern, expected)
    const struct
    {
        const char *s, *pat;
        bool want;
    } cases[] = {
        {"ORIGINALxyz", "ORIGINAL%", true},
        {"ORIGINALxyz", "%xyz", true},
        {"ORIGINALxyz", "%GINA%", true},
        {"ORIGINALxyz", "%RIG%xyz", true},
        {"ORIGINALxyz", "O%NAL%z", true},
        {"ORIGINALxyz", "ORIGINALxyz", true},
        {"ORIGINALxyz", "ORIGINAL", false}, // no wildcard: exact
        {"ORIGINALxyz", "%QQ%", false},
        {"abb", "%ab%b", true},
        {"ab", "%ab%b", false}, // tail may not overlap the middle
        {"a", "a%a", false},
        {"aa", "a%a", true},
        {"anything", "%", true},
        {"anything", "%%", true},
        {"", "%", true},
        {"", "", true},
        {"x", "", false},
    };
    for (const auto &c : cases)
        EXPECT_EQ(likeMatch(std::string_view(c.s), c.pat), c.want)
            << "'" << c.s << "' LIKE '" << c.pat << "'";
}

TEST(ExprSemantics, LikeTruncatesPayloadAtFirstNul)
{
    // Column payloads are fixed-width and zero-padded: the suffix
    // anchor must see the logical string, not the padding.
    const std::uint8_t payload[8] = {'B', 'A', 'R', '\0',
                                     '\0', '\0', '\0', '\0'};
    EXPECT_TRUE(likeMatch(std::span(payload, 8), "%AR"));
    EXPECT_TRUE(likeMatch(std::span(payload, 8), "BAR"));
    // A pattern with an embedded NUL can never match the trimmed
    // payload (explicit length — a C literal would truncate too).
    EXPECT_FALSE(likeMatch(std::span(payload, 8),
                           std::string_view("%R\0", 3)));
}

TEST(ExprSemantics, LikeAgreesWithBacktrackingReference)
{
    // Cross-check the engine's piece-scanning matcher against the
    // test reference's recursive backtracker on random inputs.
    Rng rng(20260726);
    const char alphabet[] = "abc";
    for (int it = 0; it < 4000; ++it) {
        std::string s, pat;
        const auto slen = rng.below(8);
        for (std::uint64_t i = 0; i < slen; ++i)
            s.push_back(alphabet[rng.below(3)]);
        const auto plen = rng.below(6);
        for (std::uint64_t i = 0; i < plen; ++i)
            pat.push_back(rng.flip(0.3) ? '%'
                                        : alphabet[rng.below(3)]);
        EXPECT_EQ(likeMatch(std::string_view(s), pat),
                  testsupport::detail::refLike(s, pat))
            << "'" << s << "' LIKE '" << pat << "'";
    }
}

TEST(ExprSemantics, ConstantFoldingPreservesValues)
{
    using namespace ex;
    // (3 + 4) * 2 - 14 / 0  ->  14 (division folds to 0).
    auto e = sub(mul(add(lit(3), lit(4)), lit(2)),
                 div(lit(14), lit(0)));
    auto folded = foldConstants(e);
    ASSERT_EQ(folded->op, ExprOp::IntLit);
    EXPECT_EQ(folded->lit, 14);

    // CASE WHEN folds through its condition.
    auto c = caseWhen(gt(lit(2), lit(1)), lit(7), lit(9));
    auto cf = foldConstants(c);
    ASSERT_EQ(cf->op, ExprOp::IntLit);
    EXPECT_EQ(cf->lit, 7);

    // Column-dependent subtrees survive, literal siblings fold.
    auto m = mul(col("ol_quantity"), add(lit(2), lit(3)));
    auto mf = foldConstants(m);
    ASSERT_EQ(mf->op, ExprOp::Mul);
    EXPECT_EQ(mf->kids[0]->op, ExprOp::Column);
    ASSERT_EQ(mf->kids[1]->op, ExprOp::IntLit);
    EXPECT_EQ(mf->kids[1]->lit, 5);
}

// ---- plan validation of expression contexts ------------------------

TEST(ExprValidation, RejectsMalformedExpressions)
{
    using namespace ex;
    auto base = plans::q6();

    // Unknown column.
    auto p = base;
    p.probe.exprPredicates = {gt(col("no_such"), lit(0))};
    EXPECT_THROW(validatePlan(p), FatalError);

    // Char column used as an Int leaf.
    p = base;
    p.probe.exprPredicates = {gt(col("ol_dist_info"), lit(0))};
    EXPECT_THROW(validatePlan(p), FatalError);

    // LIKE over an Int column.
    p = base;
    p.probe.exprPredicates = {like("ol_quantity", "%a%")};
    EXPECT_THROW(validatePlan(p), FatalError);

    // Empty LIKE pattern.
    p = base;
    p.probe.exprPredicates = {like("ol_dist_info", "")};
    EXPECT_THROW(validatePlan(p), FatalError);

    // Wrong operand count.
    p = base;
    auto broken = std::make_shared<Expr>();
    broken->op = ExprOp::Add;
    broken->kids = {lit(1)};
    p.probe.exprPredicates = {broken};
    EXPECT_THROW(validatePlan(p), FatalError);

    // Well-formed expressions pass.
    p = base;
    p.probe.exprPredicates = {
        and_(gt(col("ol_quantity"), lit(1)),
             like("ol_dist_info", "%a%"))};
    EXPECT_NO_THROW(validatePlan(p));
}

TEST(ExprValidation, RejectsExpressionsOutsideTheirContext)
{
    using namespace ex;

    // LIKE inside an aggregate expression: allowed over a probe
    // Char column (CASE WHEN ... LIKE sums)...
    auto p = plans::q6();
    p.aggregates = {
        {AggKind::Sum, {}, like("ol_dist_info", "%a%")}};
    EXPECT_NO_THROW(validatePlan(p));
    // ...but not over an Int column...
    p = plans::q6();
    p.aggregates = {
        {AggKind::Sum, {}, like("ol_quantity", "%a%")}};
    EXPECT_THROW(validatePlan(p), FatalError);
    // ...and not against a join payload (integer-only).
    p = plans::q21();
    {
        auto side_like = std::make_shared<Expr>();
        side_like->op = ExprOp::Like;
        side_like->col = ColRef{1, "s_dist_01"};
        side_like->pattern = "%a%";
        p.aggregates[0].expr = std::move(side_like);
    }
    EXPECT_THROW(validatePlan(p), FatalError);

    // Subquery reference with no subquery defined.
    p = plans::q6();
    p.probe.exprPredicates = {gt(col("ol_quantity"), subq(0, 0))};
    EXPECT_THROW(validatePlan(p), FatalError);

    // Subquery reference from a build-side filter.
    p = plans::q17();
    p.joins[0].build.exprPredicates = {gt(lit(1), subq(0, 0))};
    EXPECT_THROW(validatePlan(p), FatalError);

    // Aggregate slot out of range.
    p = plans::q17();
    p.probe.exprPredicates = {gt(col("ol_quantity"), subq(0, 9))};
    EXPECT_THROW(validatePlan(p), FatalError);

    // Key arity mismatch.
    p = plans::q17();
    p.subqueries[0].keys.clear();
    EXPECT_THROW(validatePlan(p), FatalError);

    // Payload reference inside an aggregate expression is fine for
    // inner joins (Q21's shape)...
    EXPECT_NO_THROW(validatePlan(plans::q21()));
    // ...but not for semi joins.
    p = plans::q21();
    p.aggregates[0].expr = ex::col(1, "s_quantity");
    EXPECT_THROW(validatePlan(p), FatalError);
}

// ---- random expression trees: batch vs the reference executor -----

/**
 * Random expression generator over ORDERLINE. Int trees draw from
 * arithmetic, CASE WHEN and comparisons; boolean trees add LIKE over
 * the ol_dist_info payload and logic connectives. Division by
 * arbitrary subtrees is deliberate (the guarded semantics must agree
 * everywhere), as are literals at the wrap extremes.
 */
class ExprGen
{
  public:
    explicit ExprGen(std::uint64_t seed) : rng_(seed) {}

    /** @p allow_like lets the tree's boolean subtrees draw LIKE over
     *  ol_dist_info. validatePlan accepts a probe-column LIKE in
     *  every expression context, so callers choose per use. */
    ExprPtr
    intExpr(int depth, bool allow_like = false)
    {
        using namespace ex;
        if (depth <= 0)
            return rng_.flip(0.5) ? leafCol() : leafLit();
        switch (rng_.below(8)) {
          case 0:
            return add(intExpr(depth - 1, allow_like),
                       intExpr(depth - 1, allow_like));
          case 1:
            return sub(intExpr(depth - 1, allow_like),
                       intExpr(depth - 1, allow_like));
          case 2:
            return mul(intExpr(depth - 1, allow_like),
                       intExpr(depth - 1, allow_like));
          case 3:
            return div(intExpr(depth - 1, allow_like),
                       intExpr(depth - 1, allow_like));
          case 4:
            return caseWhen(boolExpr(depth - 1, allow_like),
                            intExpr(depth - 1, allow_like),
                            intExpr(depth - 1, allow_like));
          case 5:
            return leafCol();
          default:
            return cmp(depth, allow_like);
        }
    }

    ExprPtr
    boolExpr(int depth, bool allow_like = true)
    {
        using namespace ex;
        if (depth <= 0)
            return cmp(0, allow_like);
        switch (rng_.below(6)) {
          case 0:
            return and_(boolExpr(depth - 1, allow_like),
                        boolExpr(depth - 1, allow_like));
          case 1:
            return or_(boolExpr(depth - 1, allow_like),
                       boolExpr(depth - 1, allow_like));
          case 2:
            return not_(boolExpr(depth - 1, allow_like));
          case 3:
            if (allow_like)
                return like("ol_dist_info", pattern());
            return cmp(depth, allow_like);
          default:
            return cmp(depth, allow_like);
        }
    }

    std::string
    pattern()
    {
        std::string pat;
        const auto pieces = 1 + rng_.below(2);
        if (rng_.flip(0.7))
            pat.push_back('%');
        for (std::uint64_t p = 0; p < pieces; ++p) {
            const auto len = 1 + rng_.below(2);
            for (std::uint64_t i = 0; i < len; ++i)
                pat.push_back(
                    static_cast<char>('a' + rng_.below(26)));
            if (p + 1 < pieces || rng_.flip(0.7))
                pat.push_back('%');
        }
        return pat;
    }

  private:
    ExprPtr
    cmp(int depth, bool allow_like = false)
    {
        using namespace ex;
        auto a = intExpr(depth > 0 ? depth - 1 : 0, allow_like);
        auto b = intExpr(depth > 0 ? depth - 1 : 0, allow_like);
        switch (rng_.below(6)) {
          case 0: return eq(std::move(a), std::move(b));
          case 1: return ne(std::move(a), std::move(b));
          case 2: return lt(std::move(a), std::move(b));
          case 3: return le(std::move(a), std::move(b));
          case 4: return gt(std::move(a), std::move(b));
          default: return ge(std::move(a), std::move(b));
        }
    }

    ExprPtr
    leafCol()
    {
        static const char *const kCols[] = {
            "ol_o_id",      "ol_d_id",     "ol_w_id",
            "ol_number",    "ol_i_id",     "ol_supply_w_id",
            "ol_delivery_d", "ol_quantity", "ol_amount"};
        return ex::col(kCols[rng_.below(9)]);
    }

    ExprPtr
    leafLit()
    {
        switch (rng_.below(8)) {
          case 0:
            return ex::lit(0);
          case 1:
            return ex::lit(std::numeric_limits<std::int64_t>::max());
          case 2:
            return ex::lit(std::numeric_limits<std::int64_t>::min());
          default:
            return ex::lit(rng_.inRange(-1000, 100000));
        }
    }

    Rng rng_;
};

/** The serial batch run and a parallel one both answer @p plan as
 *  the reference executor does. */
void
expectAgreesWithReference(Database &db, const QueryPlan &plan)
{
    const auto ref = testsupport::referenceExecute(db, plan);
    testsupport::expectSameRows(executePlan(db, plan).result.rows, ref,
                                plan.name);

    // And the parallel morsel fan-out must not change a byte.
    WorkerPool pool(2);
    ExecOptions opts;
    opts.workers = 2;
    opts.morselRows = 256;
    opts.pool = &pool;
    testsupport::expectSameRows(executePlan(db, plan, opts).result.rows,
                                ref, plan.name + " parallel");
}

/**
 * Random plan shapes built around the generated expressions:
 *  0 — join-free fused scan (expression predicate + expression
 *      aggregate),
 *  1 — grouped fused scan (dense single-key aggregation),
 *  2 — item semi join downstream of an expression predicate,
 *  3 — inner join whose aggregate expression mixes probe and
 *      payload columns,
 *  4 — scalar-subquery threshold predicate (Q17/Q20 shape with a
 *      random comparison).
 */
QueryPlan
randomPlan(ExprGen &gen, Rng &rng, int it)
{
    using namespace ex;
    QueryPlan p;
    p.name = "rand#" + std::to_string(it);
    p.probe.table = ChTable::OrderLine;
    const auto shape = rng.below(5);
    p.probe.exprPredicates = {gen.boolExpr(2 + rng.below(2))};

    if (shape == 1) {
        p.groupBy = {{ColRef::kProbe, "ol_number"}};
    } else if (shape == 2) {
        JoinSpec items;
        items.build.table = ChTable::Item;
        items.build.charPredicates = {
            {"i_data", "ORIGINAL", rng.flip(0.5)}};
        items.kind =
            rng.flip(0.5) ? JoinKind::Semi : JoinKind::Anti;
        items.keys = {{"i_id", {ColRef::kProbe, "ol_i_id"}}};
        p.joins = {std::move(items)};
    } else if (shape == 3) {
        JoinSpec orders;
        orders.build.table = ChTable::Orders;
        orders.kind = JoinKind::Inner;
        orders.keys = {{"o_id", {ColRef::kProbe, "ol_o_id"}},
                       {"o_d_id", {ColRef::kProbe, "ol_d_id"}},
                       {"o_w_id", {ColRef::kProbe, "ol_w_id"}}};
        orders.payload = {"o_entry_d", "o_ol_cnt"};
        p.joins = {std::move(orders)};
        AggSpec late;
        late.kind = AggKind::Sum;
        late.expr = caseWhen(
            gt(col("ol_delivery_d"),
               add(col(0, "o_entry_d"),
                   lit(rng.inRange(0, 200)))),
            col(0, "o_ol_cnt"), gen.intExpr(1));
        p.aggregates.push_back(std::move(late));
    } else if (shape == 4) {
        SubquerySpec stats;
        stats.source.table = ChTable::OrderLine;
        if (rng.flip(0.5))
            stats.source.intPredicates = {
                {"ol_quantity", 1, rng.inRange(3, 10)}};
        stats.groupBy = {"ol_i_id"};
        stats.aggs = {{AggKind::Sum, col("ol_quantity")},
                      {AggKind::Sum, lit(1)},
                      {rng.flip(0.5) ? AggKind::Min : AggKind::Max,
                       gen.intExpr(1)}};
        stats.keys = {{ColRef::kProbe, "ol_i_id"}};
        p.subqueries = {std::move(stats)};
        p.probe.exprPredicates.push_back(
            lt(mul(col("ol_quantity"),
                   mul(lit(static_cast<std::int64_t>(
                           1 + rng.below(8))),
                       subq(0, 1))),
               subq(0, 0)));
        if (rng.flip(0.5))
            p.probe.exprPredicates.push_back(
                ge(subq(0, 2),
                   lit(rng.inRange(-100000, 100000))));
    }

    AggSpec sum;
    sum.kind = AggKind::Sum;
    sum.expr = gen.intExpr(2 + rng.below(2), /*allow_like=*/true);
    p.aggregates.push_back(std::move(sum));
    p.aggregates.push_back(
        {AggKind::Min, {ColRef::kProbe, "ol_amount"}});
    return p;
}

class ExprPropertyTest : public ::testing::Test
{
  protected:
    ExprPropertyTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, InstanceFormat::Unified, bw, timing, 41)
    {
        // In-flight delta versions so both regions carry rows.
        for (int i = 0; i < 30; ++i)
            oltp.executeMixed();
        OlapEngine engine(db, OlapConfig::pushtapDimm());
        engine.prepareSnapshot(db.now());
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
};

TEST_F(ExprPropertyTest, RandomTreesAgreeWithReference)
{
    Rng rng(97);
    ExprGen gen(1000);
    for (int it = 0; it < 16; ++it) {
        const auto plan = randomPlan(gen, rng, it);
        ASSERT_NO_THROW(validatePlan(plan)) << plan.name;
        expectAgreesWithReference(db, plan);
    }
}

TEST(ExprPropertyFragmented, RandomTreesAgreeOnFragmentedLayouts)
{
    // With only Q1's columns as keys, most referenced columns
    // fragment: expression kernels must ride the per-row gather
    // path with identical results.
    auto cfg = smallConfig();
    cfg.olapQuerySubset = 1;
    Database db(cfg);
    Rng rng(1234);
    ExprGen gen(5678);
    for (int it = 0; it < 8; ++it) {
        const auto plan = randomPlan(gen, rng, it);
        expectAgreesWithReference(db, plan);
    }
}

TEST(ExprPropertyFragmented, CatalogLongTailAgreesOnFragmentedLayouts)
{
    auto cfg = smallConfig();
    cfg.olapQuerySubset = 1;
    Database db(cfg);
    for (int n : {2, 8, 10, 11, 16, 17, 20, 21, 22})
        expectAgreesWithReference(
            db, *workload::executableQueryPlan(n));
}

} // namespace
} // namespace pushtap::olap
