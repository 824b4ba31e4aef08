#include <gtest/gtest.h>

#include "common/log.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "olap/plan.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::olap {
namespace {

using workload::ChTable;

TEST(Plan, BuildersValidate)
{
    for (const auto &q : workload::chExecutablePlans())
        EXPECT_NO_THROW(validatePlan(q.plan))
            << "Q" << q.queryNo;
}

TEST(Plan, TableOfResolvesSides)
{
    const auto q3 = plans::q3();
    EXPECT_EQ(tableOf(q3, {ColRef::kProbe, "ol_amount"}),
              ChTable::OrderLine);
    // Side 1 is the ORDERS inner join.
    EXPECT_EQ(tableOf(q3, {1, "o_entry_d"}), ChTable::Orders);
}

TEST(Plan, TouchedColumnsQ1MatchesFootprint)
{
    const auto touched = touchedColumns(plans::q1());
    const std::set<std::pair<ChTable, std::string>> expect = {
        {ChTable::OrderLine, "ol_number"},
        {ChTable::OrderLine, "ol_quantity"},
        {ChTable::OrderLine, "ol_amount"},
        {ChTable::OrderLine, "ol_delivery_d"},
    };
    EXPECT_EQ(touched, expect);
}

TEST(Plan, TouchedColumnsIncludePayloadsOnlyWhenReferenced)
{
    // Q12 carries o_ol_cnt as payload and groups by it; the payload
    // itself is not a separate touch.
    const auto touched = touchedColumns(plans::q12());
    EXPECT_TRUE(touched.contains({ChTable::Orders, "o_ol_cnt"}));
    EXPECT_FALSE(touched.contains({ChTable::Orders, "o_all_local"}));
}

/** One "Op table.column" line per step ("Join table" for a join). */
std::vector<std::string>
describeSteps(const QueryPlan &plan)
{
    std::vector<std::string> lines;
    for (const auto &step : planSteps(plan)) {
        const char *op = "?";
        switch (step.op) {
          case pim::OpType::Filter: op = "Filter"; break;
          case pim::OpType::Group: op = "Group"; break;
          case pim::OpType::Aggregation: op = "Aggregation"; break;
          case pim::OpType::Hash: op = "Hash"; break;
          case pim::OpType::Join: op = "Join"; break;
          default: break;
        }
        std::string line =
            std::string(op) + " " + workload::chTableName(step.table);
        if (!step.column.empty())
            line += "." + step.column;
        lines.push_back(std::move(line));
    }
    return lines;
}

TEST(Plan, StepsOfQ17FollowThePricingOrder)
{
    // The subquery pre-pass (group key, aggregate input, probe-side
    // key), the probe filter, the ITEM join (its filter, both key
    // columns, the Join), then the aggregate.
    const std::vector<std::string> expect = {
        "Group orderline.ol_i_id",
        "Aggregation orderline.ol_quantity",
        "Filter orderline.ol_i_id",
        "Filter orderline.ol_quantity",
        "Filter item.i_data",
        "Hash item.i_id",
        "Hash orderline.ol_i_id",
        "Join item",
        "Aggregation orderline.ol_amount",
    };
    EXPECT_EQ(describeSteps(plans::q17()), expect);
}

TEST(Plan, StepsOfQ19ListCharPredicatesFirst)
{
    // The ITEM build's Char predicate precedes its Int one, although
    // the plan lists i_price first.
    const std::vector<std::string> expect = {
        "Filter orderline.ol_quantity",
        "Filter orderline.ol_w_id",
        "Filter item.i_data",
        "Filter item.i_price",
        "Hash item.i_id",
        "Hash orderline.ol_i_id",
        "Join item",
        "Aggregation orderline.ol_amount",
    };
    EXPECT_EQ(describeSteps(plans::q19()), expect);
}

TEST(Plan, ValidateRejectsUnknownColumn)
{
    auto p = plans::q6();
    p.probe.intPredicates.push_back({"no_such_column", 0, 1});
    EXPECT_THROW(validatePlan(p), pushtap::FatalError);
}

TEST(Plan, ValidateRejectsWrongPredicateType)
{
    auto p = plans::q6();
    // ol_dist_info is a Char column; an int range over it is a bug.
    p.probe.intPredicates.push_back({"ol_dist_info", 0, 1});
    EXPECT_THROW(validatePlan(p), pushtap::FatalError);
}

TEST(Plan, ValidateRejectsForwardSideReference)
{
    auto p = plans::q9();
    // Group key referencing join 3, but only three joins exist.
    p.groupBy.push_back({3, "i_price"});
    EXPECT_THROW(validatePlan(p), pushtap::FatalError);
}

TEST(Plan, ValidateRejectsSemiJoinPayloadReference)
{
    auto p = plans::q9();
    // Q9's item join is a semi join: its payload is off limits.
    p.groupBy.push_back({0, "i_price"});
    EXPECT_THROW(validatePlan(p), pushtap::FatalError);
}

TEST(Plan, ValidateRejectsSemiJoinWithPayload)
{
    auto p = plans::q9();
    p.joins[0].payload = {"i_price"};
    EXPECT_THROW(validatePlan(p), pushtap::FatalError);
}

TEST(Plan, EmptyRangesAreLegalSelections)
{
    // lo > hi selects nothing — a degenerate query window, not a
    // malformed plan.
    auto p = plans::q6();
    p.probe.intPredicates.push_back({"ol_quantity", 10, 1});
    EXPECT_NO_THROW(validatePlan(p));
}

TEST(Plan, BoundaryWindowsProduceEmptyRanges)
{
    // delivery_after = INT64_MAX matches nothing (old semantics:
    // strictly greater); d_hi = INT64_MIN is an empty half-open
    // window. Neither may overflow or reject.
    const auto max = std::numeric_limits<std::int64_t>::max();
    const auto min = std::numeric_limits<std::int64_t>::min();
    for (const auto &plan :
         {plans::q1(max), plans::q6(min, min, 1, 10),
          plans::q6(0, 0, 1, 10)}) {
        EXPECT_NO_THROW(validatePlan(plan));
        const auto &pred = plan.probe.intPredicates.front();
        EXPECT_GT(pred.lo, pred.hi) << plan.name;
    }
}

TEST(Plan, ValidateRejectsSortIndexOutOfRange)
{
    auto p = plans::q1();
    p.orderBy.push_back({SortKey::Target::Aggregate, 7, false});
    EXPECT_THROW(validatePlan(p), pushtap::FatalError);
}

TEST(Plan, ValidateRejectsJoinWithoutKeys)
{
    auto p = plans::q9();
    p.joins[0].keys.clear();
    EXPECT_THROW(validatePlan(p), pushtap::FatalError);
}

/** The first @p n of ORDERLINE's nine Int columns (one more than
 *  kMaxKeyColumns). */
std::vector<std::string>
lineInts(std::size_t n)
{
    static const char *const kCols[] = {
        "ol_w_id",       "ol_d_id",     "ol_o_id",
        "ol_number",     "ol_i_id",     "ol_supply_w_id",
        "ol_delivery_d", "ol_quantity", "ol_amount"};
    static_assert(std::size(kCols) == kMaxKeyColumns + 1);
    return {kCols, kCols + n};
}

/** @p widen(n) builds an ORDERLINE plan with an n-column key: it
 *  validates at kMaxKeyColumns columns and fatals at one more. */
template <typename Widen>
void
expectKeyCap(Widen &&widen)
{
    const auto base = [] {
        QueryPlan p;
        p.name = "wide_keys";
        p.probe.table = ChTable::OrderLine;
        p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};
        return p;
    };
    auto fits = base();
    widen(fits, lineInts(kMaxKeyColumns));
    EXPECT_NO_THROW(validatePlan(fits));
    auto wide = base();
    widen(wide, lineInts(kMaxKeyColumns + 1));
    EXPECT_THROW(validatePlan(wide), pushtap::FatalError);
}

TEST(Plan, ValidateCapsGroupKeys)
{
    expectKeyCap([](QueryPlan &p, const std::vector<std::string> &cols) {
        for (const auto &c : cols)
            p.groupBy.push_back({ColRef::kProbe, c});
    });
}

TEST(Plan, ValidateCapsJoinKeys)
{
    expectKeyCap([](QueryPlan &p, const std::vector<std::string> &cols) {
        JoinSpec self;
        self.build.table = ChTable::OrderLine;
        self.kind = JoinKind::Semi;
        for (const auto &c : cols)
            self.keys.push_back({c, {ColRef::kProbe, c}});
        p.joins = {std::move(self)};
    });
}

TEST(Plan, ValidateCapsSubqueryGroupKeys)
{
    expectKeyCap([](QueryPlan &p, const std::vector<std::string> &cols) {
        SubquerySpec sub;
        sub.source.table = ChTable::OrderLine;
        sub.aggs = {{AggKind::Sum, ex::lit(1)}};
        for (const auto &c : cols) {
            sub.groupBy.push_back(c);
            sub.keys.push_back({ColRef::kProbe, c});
        }
        p.subqueries = {std::move(sub)};
    });
}

TEST(Plan, DescribePlanDumpsPlan)
{
    QueryPlan p;
    p.name = "skewed2";
    p.probe.table = ChTable::OrderLine;
    JoinSpec stock;
    stock.build.table = ChTable::Stock;
    stock.kind = JoinKind::Semi;
    stock.keys = {{"s_w_id", {ColRef::kProbe, "ol_supply_w_id"}},
                  {"s_i_id", {ColRef::kProbe, "ol_i_id"}}};
    JoinSpec wh;
    wh.build.table = ChTable::Warehouse;
    wh.kind = JoinKind::Semi;
    wh.keys = {{"w_id", {ColRef::kProbe, "ol_w_id"}}};
    p.joins = {std::move(stock), std::move(wh)};
    p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}}};

    const auto dump = describePlan(p);
    EXPECT_NE(dump.find("plan skewed2"), std::string::npos);
    EXPECT_NE(dump.find("probe orderline"), std::string::npos);
    EXPECT_NE(dump.find("join j0: semi stock"), std::string::npos);
    EXPECT_NE(dump.find("s_i_id == probe.ol_i_id"), std::string::npos);
    EXPECT_NE(dump.find("join j1: semi warehouse"),
              std::string::npos);
    EXPECT_NE(dump.find("agg sum(probe.ol_amount)"),
              std::string::npos);
}

} // namespace
} // namespace pushtap::olap
