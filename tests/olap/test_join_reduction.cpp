#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "support/expect_rows.hpp"
#include "txn/tpcc_engine.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::olap {
namespace {

using testsupport::expectMatchesReference;
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

/**
 * Semi-join reduction (reducedJoin): a semi or anti join keyed on one
 * inner join's payload alone is applied to that join's build tuples
 * instead of to the probe's expanded entries. The database holds a
 * few hundred committed NewOrders: every district's runtime order ids
 * start at the seeded order count, so an ORDERS join on o_id alone
 * matches each runtime order line about once per district — the
 * fan-out the reductions cut.
 */
class JoinReductionTest : public ::testing::Test
{
  protected:
    JoinReductionTest()
        : db(smallConfig()),
          bw(8, 8, true),
          timing(dram::Geometry::dimmDefault(),
                 dram::TimingParams::ddr5_3200()),
          oltp(db, InstanceFormat::Unified, bw, timing, 23),
          engine(db, OlapConfig::pushtapDimm())
    {
        for (int i = 0; i < 800; ++i)
            oltp.executeMixed();
        engine.prepareSnapshot(db.now());
    }

    /** ORDERLINE probe, joined to ORDERS on o_id alone (join 0) with
     *  the payload (o_c_id, o_d_id, o_entry_d), grouped by the order's
     *  district; @p extra joins follow. */
    static QueryPlan
    fanOutPlan(std::string name, std::vector<JoinSpec> extra)
    {
        QueryPlan p;
        p.name = std::move(name);
        p.probe.table = ChTable::OrderLine;
        JoinSpec orders;
        orders.build.table = ChTable::Orders;
        orders.kind = JoinKind::Inner;
        orders.keys = {{"o_id", {ColRef::kProbe, "ol_o_id"}}};
        orders.payload = {"o_c_id", "o_d_id", "o_entry_d"};
        p.joins = {std::move(orders)};
        for (auto &j : extra)
            p.joins.push_back(std::move(j));
        p.groupBy = {{0, "o_d_id"}};
        p.aggregates = {{AggKind::Sum, {ColRef::kProbe, "ol_amount"}, {}},
                        {AggKind::Max, {0, "o_c_id"}, {}},
                        {AggKind::Min, {0, "o_entry_d"}, {}}};
        return p;
    }

    /** A CUSTOMER semi or anti join keyed on @p keys. */
    static JoinSpec
    customers(JoinKind kind,
              std::vector<std::pair<std::string, ColRef>> keys,
              std::string state_prefix = "A")
    {
        JoinSpec c;
        c.build.table = ChTable::Customer;
        c.build.charPredicates = {{"c_state", std::move(state_prefix),
                                   false}};
        c.kind = kind;
        c.keys = std::move(keys);
        return c;
    }

    Database db;
    format::BandwidthModel bw;
    dram::BatchTimingModel timing;
    TpccEngine oltp;
    OlapEngine engine;
};

TEST_F(JoinReductionTest, RuntimeOrderIdsRepeatAcrossDistricts)
{
    // The precondition of every test below: the first runtime order
    // id exists in several districts.
    const auto first = static_cast<std::int64_t>(
        db.generator().rows(ChTable::Orders));
    QueryPlan p;
    p.name = "first_runtime_order";
    p.probe.table = ChTable::Orders;
    p.probe.intPredicates = {{"o_id", first, first}};
    const auto rows = testsupport::referenceExecute(db, p);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_GE(rows[0].count, 5u);
    EXPECT_GE(oltp.stats().newOrders, 300u);
}

TEST_F(JoinReductionTest, ReducedJoinNamesOneInnerJoinsPayload)
{
    const ColRef c_id{0, "o_c_id"};
    const ColRef d_id{0, "o_d_id"};
    const auto one = fanOutPlan(
        "one", {customers(JoinKind::Semi, {{"c_id", c_id}})});
    EXPECT_EQ(reducedJoin(one, 1), std::optional<std::size_t>{0});
    EXPECT_EQ(reducedJoin(one, 0), std::nullopt) << "an inner join";
    const auto two = fanOutPlan(
        "two", {customers(JoinKind::Anti,
                          {{"c_id", c_id}, {"c_d_id", d_id}})});
    EXPECT_EQ(reducedJoin(two, 1), std::optional<std::size_t>{0});
    const auto mixed = fanOutPlan(
        "mixed", {customers(JoinKind::Semi,
                            {{"c_id", c_id},
                             {"c_d_id", {ColRef::kProbe, "ol_d_id"}}})});
    EXPECT_EQ(reducedJoin(mixed, 1), std::nullopt);
    const auto probe = fanOutPlan(
        "probe", {customers(JoinKind::Semi,
                            {{"c_id", {ColRef::kProbe, "ol_i_id"}}})});
    EXPECT_EQ(reducedJoin(probe, 1), std::nullopt);
    // The catalog: Q5, Q7, Q8, Q10 and Q18 test CUSTOMER on the
    // ORDERS payload alone; Q3's CUSTOMER key mixes in probe columns.
    for (const int q : {5, 7, 10, 18})
        EXPECT_EQ(reducedJoin(*workload::executableQueryPlan(q), 1),
                  std::optional<std::size_t>{0})
            << "Q" << q;
    EXPECT_EQ(reducedJoin(*workload::executableQueryPlan(8), 2),
              std::optional<std::size_t>{1});
    EXPECT_EQ(reducedJoin(*workload::executableQueryPlan(3), 2),
              std::nullopt);
}

TEST_F(JoinReductionTest, DescribePlanMarksReducingJoins)
{
    const auto q5 = describePlan(*workload::executableQueryPlan(5));
    EXPECT_NE(q5.find("join j1: semi customer on c_id == j0.o_c_id "
                      "[reduces j0's build]\n"),
              std::string::npos)
        << q5;
    EXPECT_EQ(q5.find("join j2: semi stock on s_w_id == "
                      "probe.ol_supply_w_id [reduces"),
              std::string::npos)
        << q5;
    const auto q8 = describePlan(*workload::executableQueryPlan(8));
    EXPECT_NE(q8.find("[reduces j1's build]"), std::string::npos) << q8;
    const auto q3 = describePlan(*workload::executableQueryPlan(3));
    EXPECT_EQ(q3.find("[reduces"), std::string::npos) << q3;
}

TEST_F(JoinReductionTest, StatsReportCollectedAndKeptTuples)
{
    // Q5's ORDERS build keeps only the orders of customers in the
    // CUSTOMER set; Q21 has no reducing join, so its ORDERS build
    // keeps every collected tuple. Either way `rows` and `denseSlots`
    // describe what the scan collected: the same as a plan whose
    // CUSTOMER key stays in the probe.
    const auto q5 = executePlan(db, *workload::executableQueryPlan(5));
    ASSERT_EQ(q5.stats.joinBuilds.size(), 3u);
    const auto &orders = q5.stats.joinBuilds[0];
    EXPECT_GT(orders.kept, 0u);
    EXPECT_LT(orders.kept, orders.rows);
    for (std::size_t k = 1; k < 3; ++k)
        EXPECT_EQ(q5.stats.joinBuilds[k].kept,
                  q5.stats.joinBuilds[k].rows)
            << "key set " << k;

    const auto q21 = executePlan(db, *workload::executableQueryPlan(21));
    ASSERT_EQ(q21.stats.joinBuilds.size(), 2u);
    EXPECT_GT(q21.stats.joinBuilds[0].rows, 0u);
    EXPECT_EQ(q21.stats.joinBuilds[0].kept,
              q21.stats.joinBuilds[0].rows);

    auto unreduced = *workload::executableQueryPlan(5);
    unreduced.joins[1].keys.push_back(
        {"c_w_id", {ColRef::kProbe, "ol_w_id"}});
    ASSERT_EQ(reducedJoin(unreduced, 1), std::nullopt);
    const auto plain = executePlan(db, unreduced).stats.joinBuilds[0];
    EXPECT_EQ(orders.rows, plain.rows);
    EXPECT_EQ(orders.denseSlots, plain.denseSlots);
    EXPECT_EQ(plain.kept, plain.rows);
}

TEST_F(JoinReductionTest, SemiAndAntiOverOneAndTwoPayloadColumns)
{
    const ColRef c_id{0, "o_c_id"};
    const ColRef d_id{0, "o_d_id"};
    for (const auto kind : {JoinKind::Semi, JoinKind::Anti})
        for (const bool two : {false, true}) {
            std::vector<std::pair<std::string, ColRef>> keys = {
                {"c_id", c_id}};
            if (two)
                keys.push_back({"c_d_id", d_id});
            const auto p = fanOutPlan(
                std::string(kind == JoinKind::Semi ? "semi" : "anti") +
                    (two ? "_two" : "_one"),
                {customers(kind, std::move(keys))});
            ASSERT_EQ(reducedJoin(p, 1), std::optional<std::size_t>{0});
            const auto want = expectMatchesReference(db, p);
            EXPECT_FALSE(want.empty()) << p.name;
        }
}

TEST_F(JoinReductionTest, ReductionOfTheSecondInnerJoin)
{
    // Q8's shape: the reducing join keys on the payload of join 1,
    // behind an inner join of its own (ITEM on the probe's item).
    QueryPlan p;
    p.name = "second_inner";
    p.probe.table = ChTable::OrderLine;
    JoinSpec items;
    items.build.table = ChTable::Item;
    items.kind = JoinKind::Inner;
    items.keys = {{"i_id", {ColRef::kProbe, "ol_i_id"}}};
    items.payload = {"i_price"};
    JoinSpec orders;
    orders.build.table = ChTable::Orders;
    orders.kind = JoinKind::Inner;
    orders.keys = {{"o_id", {ColRef::kProbe, "ol_o_id"}}};
    orders.payload = {"o_c_id", "o_d_id"};
    p.joins = {std::move(items), std::move(orders),
               customers(JoinKind::Semi, {{"c_id", {1, "o_c_id"}},
                                          {"c_d_id", {1, "o_d_id"}}})};
    p.groupBy = {{1, "o_d_id"}};
    p.aggregates = {{AggKind::Sum, {0, "i_price"}, {}},
                    {AggKind::Max, {1, "o_c_id"}, {}}};
    ASSERT_EQ(reducedJoin(p, 2), std::optional<std::size_t>{1});
    EXPECT_FALSE(expectMatchesReference(db, p).empty());
    const auto stats = executePlan(db, p).stats.joinBuilds;
    EXPECT_EQ(stats[0].kept, stats[0].rows);
    EXPECT_LT(stats[1].kept, stats[1].rows);
}

TEST_F(JoinReductionTest, TwoJoinsReduceOneBuild)
{
    // A semi join on the customer and an anti join on the district
    // both thin join 0's tuples, in either order.
    const ColRef c_id{0, "o_c_id"};
    const ColRef d_id{0, "o_d_id"};
    JoinSpec district;
    district.build.table = ChTable::District;
    district.build.intPredicates = {{"d_id", 0, 2}};
    district.kind = JoinKind::Anti;
    district.keys = {{"d_id", d_id}};
    for (const bool swap : {false, true}) {
        std::vector<JoinSpec> extra = {
            customers(JoinKind::Semi, {{"c_id", c_id}}, "B"), district};
        if (swap)
            std::swap(extra[0], extra[1]);
        const auto p = fanOutPlan(swap ? "anti_then_semi"
                                       : "semi_then_anti",
                                  std::move(extra));
        ASSERT_EQ(reducedJoin(p, 1), std::optional<std::size_t>{0});
        ASSERT_EQ(reducedJoin(p, 2), std::optional<std::size_t>{0});
        const auto want = expectMatchesReference(db, p);
        EXPECT_FALSE(want.empty()) << p.name;
        for (const auto &row : want)
            EXPECT_GT(row.keys[0], 2) << p.name;
    }
}

TEST_F(JoinReductionTest, MixedAndTwoJoinKeysStayInTheProbe)
{
    // A key mixing a payload and a probe column, and a key spanning
    // two inner joins' payloads, reduce nothing: both run per
    // expanded entry and must still match the reference.
    const auto mixed = fanOutPlan(
        "mixed_key",
        {customers(JoinKind::Semi,
                   {{"c_id", {0, "o_c_id"}},
                    {"c_d_id", {ColRef::kProbe, "ol_d_id"}}})});
    ASSERT_EQ(reducedJoin(mixed, 1), std::nullopt);
    EXPECT_FALSE(expectMatchesReference(db, mixed).empty());

    JoinSpec district;
    district.build.table = ChTable::District;
    district.kind = JoinKind::Inner;
    district.keys = {{"d_id", {0, "o_d_id"}}};
    district.payload = {"d_id"};
    for (const auto kind : {JoinKind::Semi, JoinKind::Anti}) {
        auto p = fanOutPlan(
            kind == JoinKind::Semi ? "two_join_semi" : "two_join_anti",
            {district, customers(kind, {{"c_id", {0, "o_c_id"}},
                                        {"c_d_id", {1, "d_id"}}})});
        ASSERT_EQ(reducedJoin(p, 2), std::nullopt);
        EXPECT_FALSE(expectMatchesReference(db, p).empty()) << p.name;
        const auto stats = executePlan(db, p).stats.joinBuilds;
        EXPECT_EQ(stats[0].kept, stats[0].rows) << p.name;
    }
}

TEST_F(JoinReductionTest, ReducingSetThatEmptiesTheBuild)
{
    // An empty CUSTOMER set: the semi join drops every ORDERS tuple
    // (the ungrouped plan answers its one zero row), the anti join
    // keeps every one. The emptied build still reports the rows and
    // key domain its scan collected.
    for (const auto kind : {JoinKind::Semi, JoinKind::Anti})
        for (const bool grouped : {false, true}) {
            auto none = customers(kind, {{"c_id", {0, "o_c_id"}}});
            none.build.intPredicates = {{"c_id", -2, -1}};
            auto p = fanOutPlan(std::string(kind == JoinKind::Semi
                                                ? "empty_semi"
                                                : "empty_anti") +
                                    (grouped ? "_grouped" : ""),
                                {std::move(none)});
            if (!grouped)
                p.groupBy.clear();
            const auto want = expectMatchesReference(db, p);
            std::uint64_t rows = 0;
            for (const auto &r : want)
                rows += r.count;
            const auto stats = executePlan(db, p).stats.joinBuilds;
            EXPECT_GT(stats[0].rows, 0u) << p.name;
            EXPECT_GT(stats[0].denseSlots, 0u) << p.name;
            EXPECT_EQ(stats[1].rows, 0u) << p.name;
            if (kind == JoinKind::Semi) {
                EXPECT_EQ(rows, 0u) << p.name;
                EXPECT_EQ(stats[0].kept, 0u) << p.name;
            } else {
                EXPECT_GT(rows, 0u) << p.name;
                EXPECT_EQ(stats[0].kept, stats[0].rows) << p.name;
            }
        }
}

TEST_F(JoinReductionTest, CatalogPlansMatchOnRepeatedOrderIds)
{
    for (const auto &q : workload::chExecutablePlans())
        expectMatchesReference(db, q.plan);
}

} // namespace
} // namespace pushtap::olap
