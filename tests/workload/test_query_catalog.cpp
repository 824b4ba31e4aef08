#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cstddef>
#include <string>

#include "olap/plan.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::workload {
namespace {

TEST(QueryCatalog, Q1SubsetHasFourKeyColumns)
{
    // Section 7.2: "the subset Q1-1 contains only 4 key columns".
    auto schemas = chBenchmarkSchemas();
    EXPECT_EQ(markKeyColumns(schemas, 1), 4u);
}

TEST(QueryCatalog, Q1To3SubsetNearThirtyTwoKeyColumns)
{
    // Section 7.2: "the subset Q1-3 contains 32 key columns". Our
    // reconstructed footprints land in the same ballpark.
    auto schemas = chBenchmarkSchemas();
    const auto n = markKeyColumns(schemas, 3);
    EXPECT_GE(n, 24u);
    EXPECT_LE(n, 36u);
}

TEST(QueryCatalog, KeyColumnCountsPerSubsetArePinned)
{
    // Key columns marked for every subset Q1..Qn, n = 0..22: the
    // footprints derive from the executable plans, and these counts
    // pin the key-column model of Fig. 8(c,d) that derivation feeds.
    constexpr std::size_t kWant[] = {0,  4,  12, 27, 28, 29, 29, 29,
                                     30, 30, 34, 34, 34, 34, 34, 34,
                                     35, 35, 35, 35, 35, 35, 36};
    for (int n = 0; n <= 22; ++n) {
        auto schemas = chBenchmarkSchemas();
        EXPECT_EQ(markKeyColumns(schemas, n),
                  kWant[static_cast<std::size_t>(n)])
            << "subset Q1-" << n;
    }
}

TEST(QueryCatalog, KeyColumnsGrowWithSubset)
{
    std::size_t prev = 0;
    for (int n : {1, 2, 3, 10, 22}) {
        auto schemas = chBenchmarkSchemas();
        const auto marked = markKeyColumns(schemas, n);
        EXPECT_GE(marked, prev) << "subset Q1-" << n;
        prev = marked;
    }
}

TEST(QueryCatalog, ZipIsNeverScanned)
{
    // Section 4.1.2: "column zip is not operated by any query".
    const auto freq = scanFrequencies(22);
    for (const auto &[key, n] : freq) {
        (void)n;
        EXPECT_NE(key.second, "c_zip");
        EXPECT_NE(key.second, "w_zip");
        EXPECT_NE(key.second, "d_zip");
    }
}

TEST(QueryCatalog, CustomerIdScannedMoreThanState)
{
    // Section 4.2: "eight queries analyze column id, while only
    // three queries analyze column state" — the catalog preserves the
    // ordering (c_id strictly more popular than c_state).
    const auto freq = scanFrequencies(22);
    const auto id_it = freq.find({ChTable::Customer, "c_id"});
    const auto st_it = freq.find({ChTable::Customer, "c_state"});
    ASSERT_NE(id_it, freq.end());
    ASSERT_NE(st_it, freq.end());
    EXPECT_GT(id_it->second, st_it->second);
    EXPECT_GE(id_it->second, 8u);
}

TEST(QueryCatalog, FrequenciesMonotoneInSubsets)
{
    const auto f10 = scanFrequencies(10);
    const auto f22 = scanFrequencies(22);
    for (const auto &[key, n] : f10) {
        const auto it = f22.find(key);
        ASSERT_NE(it, f22.end());
        EXPECT_GE(it->second, n);
    }
}

TEST(QueryCatalog, SubsetRangeValidated)
{
    EXPECT_THROW(scanFrequencies(23), pushtap::FatalError);
    EXPECT_THROW(scanFrequencies(-1), pushtap::FatalError);
    EXPECT_TRUE(scanFrequencies(0).empty());
}

TEST(QueryCatalog, SubsetRangeErrorNamesTheValidRange)
{
    // The fatal message must tell the caller what the valid subsets
    // are, not just that theirs is bad.
    try {
        scanFrequencies(23);
        FAIL() << "scanFrequencies(23) did not throw";
    } catch (const pushtap::FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("Q23"), std::string::npos) << what;
        EXPECT_NE(what.find("22"), std::string::npos) << what;
        EXPECT_NE(what.find("0"), std::string::npos) << what;
    }
}

TEST(QueryCatalog, ExecutablePlanRangeValidated)
{
    // Out-of-range query numbers are caller bugs: fatal, with the
    // valid query set named. In-range numbers all resolve.
    for (int bad : {0, -1, 23, 100})
        EXPECT_THROW(executableQueryPlan(bad), pushtap::FatalError)
            << "Q" << bad;
    try {
        executableQueryPlan(23);
        FAIL() << "executableQueryPlan(23) did not throw";
    } catch (const pushtap::FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("Q23"), std::string::npos) << what;
        EXPECT_NE(what.find("Q1..Q22"), std::string::npos) << what;
    }
}

TEST(QueryCatalog, HtapBenchFootprintNonEmpty)
{
    const auto freq = htapBenchScanFrequencies();
    EXPECT_GE(freq.size(), 10u);
}

// ---- Executable plans: the catalog the footprints derive from.

bool
hasNoExprPredicates(const olap::QueryPlan &plan)
{
    if (!plan.probe.exprPredicates.empty())
        return false;
    for (const auto &join : plan.joins)
        if (!join.build.exprPredicates.empty())
            return false;
    return true;
}

bool
hasExprAggregate(const olap::QueryPlan &plan)
{
    for (const auto &agg : plan.aggregates)
        if (agg.expr)
            return true;
    return false;
}

TEST(QueryCatalog, AllTwentyTwoQueriesExecutable)
{
    const auto &plans = chExecutablePlans();
    ASSERT_EQ(plans.size(), 22u);
    int prev = 0;
    for (const auto &q : plans) {
        EXPECT_GT(q.queryNo, prev) << "ordered by query number";
        prev = q.queryNo;
        // std::string(..) + avoids the GCC 12 -Wrestrict false
        // positive on operator+(const char*, string&&) (PR 105651).
        EXPECT_EQ(q.plan.name,
                  std::string("Q") + std::to_string(q.queryNo));
    }
    // The full CH suite: every catalog query resolves to a plan.
    for (int n = 1; n <= 22; ++n)
        EXPECT_NE(executableQueryPlan(n), nullptr) << "Q" << n;
}

TEST(QueryCatalog, LongTailPlansUseTheExpressionIR)
{
    // The queries the closed predicate/aggregate structs could not
    // express: LIKE filters, CASE sums and subquery thresholds.
    for (int n : {2, 7, 10, 16, 18, 22})
        EXPECT_FALSE(hasNoExprPredicates(*executableQueryPlan(n)))
            << "Q" << n << " should carry expression predicates";
    for (int n : {8, 11, 21})
        EXPECT_TRUE(hasExprAggregate(*executableQueryPlan(n)))
            << "Q" << n << " should carry an expression aggregate";
    for (int n : {17, 20})
        EXPECT_FALSE(executableQueryPlan(n)->subqueries.empty())
            << "Q" << n << " should carry a scalar subquery";
}

TEST(QueryCatalog, ExecutablePlansOnlyScanKeyColumns)
{
    // Every column an executable plan touches is a key column under
    // the full Q1-22 subset — the paper's premise that PIM scans
    // operate on unfragmented key columns.
    auto schemas = chBenchmarkSchemas();
    markKeyColumns(schemas, 22);
    for (const auto &q : chExecutablePlans())
        for (const auto &[table, column] :
             olap::touchedColumns(q.plan)) {
            const auto &s =
                schemas[static_cast<std::size_t>(table)];
            EXPECT_TRUE(
                s.column(s.columnId(column)).isKey ||
                s.column(s.columnId(column)).type ==
                    format::ColType::Char)
                << "Q" << q.queryNo << " scans non-key "
                << s.name() << "." << column;
        }
}

} // namespace
} // namespace pushtap::workload
