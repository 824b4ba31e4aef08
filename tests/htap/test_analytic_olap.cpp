#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/log.hpp"

#include "htap/analytic_olap.hpp"
#include "memctrl/offload_costs.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::htap {
namespace {

class AnalyticOlapTest : public ::testing::Test
{
  protected:
    AnalyticOlapTest()
        : db(config()),
          geom(dram::Geometry::dimmDefault()),
          timing(dram::TimingParams::ddr5_3200()),
          pimCfg(pim::PimConfig::upmemLike()),
          model(db, geom, timing, pimCfg,
                memctrl::pushtapArchOverheads(geom, timing))
    {}

    static txn::DatabaseConfig
    config()
    {
        txn::DatabaseConfig cfg;
        cfg.scale = 0.0002;
        cfg.blockRows = 64;
        return cfg;
    }

    txn::Database db;
    dram::Geometry geom;
    dram::TimingParams timing;
    pim::PimConfig pimCfg;
    AnalyticOlapModel model;
};

TEST_F(AnalyticOlapTest, IdealHasNoConsistency)
{
    const auto rep =
        model.runQuery(BaselineKind::Ideal, olap::plans::q6(), 1'000'000);
    EXPECT_EQ(rep.consistencyNs, 0.0);
    EXPECT_GT(rep.pimNs, 0.0);
}

TEST_F(AnalyticOlapTest, RebuildGrowsLinearly)
{
    const auto t1 = model.rebuildTime(1000, false);
    const auto t2 = model.rebuildTime(2000, false);
    EXPECT_NEAR(t2, 2.0 * t1, t1 * 0.01);
    EXPECT_EQ(model.rebuildTime(0, false), 0.0);
}

TEST_F(AnalyticOlapTest, AcceleratorCutsRebuild)
{
    const auto base = model.rebuildTime(10000, false);
    const auto accel = model.rebuildTime(10000, true);
    EXPECT_LT(accel, base);
    EXPECT_NEAR(base / accel, 5.0, 1e-6);
}

TEST_F(AnalyticOlapTest, MiConsistencyDominatesAtHighTxnCounts)
{
    // Fig. 9(b): at large pending-transaction counts, MI's rebuild
    // dwarfs the scan time.
    const std::uint64_t versions = 200'000;
    const auto mi = model.runQuery(BaselineKind::MultiInstance,
                                   olap::plans::q6(), versions);
    EXPECT_GT(mi.consistencyNs, mi.pimNs);
    const auto ideal =
        model.runQuery(BaselineKind::Ideal, olap::plans::q6(), versions);
    EXPECT_GT(mi.totalNs(), 2.0 * ideal.totalNs());
}

TEST_F(AnalyticOlapTest, QueriesOrderedByWork)
{
    // Q9 (join over two tables) > Q1 (4 scans) > Q6 (3 scans).
    const auto q1 = model.runQuery(BaselineKind::Ideal, olap::plans::q1(), 0);
    const auto q6 = model.runQuery(BaselineKind::Ideal, olap::plans::q6(), 0);
    const auto q9 = model.runQuery(BaselineKind::Ideal, olap::plans::q9(), 0);
    EXPECT_GT(q9.totalNs(), q1.totalNs());
    EXPECT_GT(q1.totalNs(), q6.totalNs());
}

TEST_F(AnalyticOlapTest, NamesIdentifySystem)
{
    EXPECT_EQ(
        model.runQuery(BaselineKind::Ideal, olap::plans::q1(), 0).name,
        "Ideal/Q1");
    EXPECT_EQ(model.runQuery(BaselineKind::MultiInstance,
                             olap::plans::q6(), 0)
                  .name,
              "MI/Q6");
    EXPECT_EQ(model.runQuery(BaselineKind::MultiInstanceAccel,
                             olap::plans::q9(), 0)
                  .name,
              "MI(accel)/Q9");
}

TEST_F(AnalyticOlapTest, RunQueryPricesWiderChSuite)
{
    // Every catalog plan prices end-to-end on the baselines, and
    // MI's rebuild charge is plan-independent.
    for (const auto &q : workload::chExecutablePlans()) {
        const auto ideal =
            model.runQuery(BaselineKind::Ideal, q.plan, 10'000);
        EXPECT_GT(ideal.pimNs, 0.0) << q.plan.name;
        EXPECT_EQ(ideal.consistencyNs, 0.0) << q.plan.name;
        const auto mi = model.runQuery(BaselineKind::MultiInstance,
                                       q.plan, 10'000);
        EXPECT_DOUBLE_EQ(mi.consistencyNs,
                         model.rebuildTime(10'000, false))
            << q.plan.name;
        EXPECT_DOUBLE_EQ(mi.pimNs, ideal.pimNs) << q.plan.name;
    }
}

TEST_F(AnalyticOlapTest, JoinPlansCostMoreThanTheirProbeScan)
{
    const auto q14 =
        model.runQuery(BaselineKind::Ideal, olap::plans::q14(), 0);
    auto scan_only = olap::plans::q14();
    scan_only.joins.clear();
    const auto scan =
        model.runQuery(BaselineKind::Ideal, scan_only, 0);
    EXPECT_GT(q14.totalNs(), scan.totalNs());
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** FNV-1a over the little-endian bytes of one double (PricingPins'
 *  fold). */
std::uint64_t
fnv1a(std::uint64_t h, double value)
{
    const auto word = std::bit_cast<std::uint64_t>(value);
    for (int b = 0; b < 8; ++b)
        h = (h ^ static_cast<std::uint8_t>(word >> (8 * b))) *
            kFnvPrime;
    return h;
}

using BaselinePins = AnalyticOlapTest;

TEST_F(BaselinePins, CatalogReportsAreBitIdentical)
{
    // The Ideal/MI side of Fig. 9(b), pinned: every catalog plan's
    // scan, CPU and rebuild charges under each baseline.
    constexpr std::uint64_t kBaselineHash = 0x4a1b53e29b5fc7efull;
    std::uint64_t h = kFnvOffset;
    for (const auto &q : workload::chExecutablePlans())
        for (const auto kind :
             {BaselineKind::Ideal, BaselineKind::MultiInstance,
              BaselineKind::MultiInstanceAccel}) {
            const auto rep = model.runQuery(kind, q.plan, 10'000);
            h = fnv1a(h, rep.pimNs);
            h = fnv1a(h, rep.cpuNs);
            h = fnv1a(h, rep.consistencyNs);
        }
    EXPECT_EQ(h, kBaselineHash) << std::hex << h;
}

} // namespace
} // namespace pushtap::htap
