#pragma once

/**
 * @file
 * The OLAP suites' one answer comparison: two row lists agree row
 * for row on `keys`, `aggs` and `count`. Any row type with those
 * members fits, so engine rows compare against engine rows
 * (olap::ResultRow) and against the reference executor's
 * (testsupport::RefRow) alike; expectReferenceAnswer adds the
 * visible-row check of a fresh snapshot. Kept apart from
 * reference_executor.hpp, which builds without gtest.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "olap/operators.hpp"
#include "support/reference_executor.hpp"

namespace pushtap::testsupport {

template <typename GotRow, typename WantRow>
void
expectSameRows(const std::vector<GotRow> &got,
               const std::vector<WantRow> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].keys, want[i].keys) << what << " row " << i;
        EXPECT_EQ(got[i].aggs, want[i].aggs) << what << " row " << i;
        EXPECT_EQ(got[i].count, want[i].count) << what << " row " << i;
    }
}

/**
 * @p got answers @p plan with the reference rows @p want, at a
 * snapshot of the newest commit — where every row of the probe table
 * is visible exactly once, so rowsVisible is its usedDataRows().
 */
inline void
expectReferenceAnswer(const txn::Database &db,
                      const olap::QueryPlan &plan,
                      const olap::PlanExecution &got,
                      const std::vector<RefRow> &want,
                      const std::string &what)
{
    EXPECT_EQ(got.rowsVisible,
              db.table(plan.probe.table).usedDataRows())
        << what;
    expectSameRows(got.result.rows, want, what);
}

} // namespace pushtap::testsupport
