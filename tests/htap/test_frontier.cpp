#include <gtest/gtest.h>

#include "common/log.hpp"

#include <cmath>
#include <vector>

#include "htap/frontier.hpp"

namespace pushtap::htap {
namespace {

FrontierProfile
pushtapLike()
{
    FrontierProfile p;
    p.txnCpuNs = 3000.0;
    p.txnBusBytes = 700.0;
    p.queryPimNs = 1.0e6;
    p.queryCpuBusBytes = 1.0e6;
    p.queryCpuBlockedNs = 5.0e4;
    p.consistencyBusBytesPerVersion = 24.0;
    p.consistencyBlocksOltp = false;
    return p;
}

FrontierProfile
miLike()
{
    auto p = pushtapLike();
    // Rebuild moves whole rows both ways and re-installs them in the
    // column store.
    p.consistencyBusBytesPerVersion = 300.0;
    p.consistencyPimNsPerVersion = 2.0;
    p.consistencyBlocksOltp = true;
    p.queryCpuBlockedNs = 0.0; // separate instances
    return p;
}

TEST(Frontier, MaxTxnRateIsCoreBound)
{
    const FrontierModel m(pushtapLike());
    EXPECT_NEAR(m.maxTxnRate(), 16.0 / 3000.0 * 1e9, 1.0);
}

TEST(Frontier, QueryDurationGrowsWithTxnRate)
{
    const FrontierModel m(pushtapLike());
    const auto t0 = m.queryDuration(0.0);
    const auto t1 = m.queryDuration(1e6);
    const auto t2 = m.queryDuration(3e6);
    EXPECT_GT(t1, t0);
    EXPECT_GT(t2, t1);
}

TEST(Frontier, ZeroRateQueryTimeIsBase)
{
    const FrontierModel m(pushtapLike());
    const auto p = pushtapLike();
    const double expect =
        p.queryPimNs +
        p.queryCpuBusBytes / p.busBandwidth.bytesPerNs();
    EXPECT_NEAR(m.queryDuration(0.0), expect, 1e-6);
}

TEST(Frontier, InfeasibleRateReturnsInfinity)
{
    const FrontierModel m(pushtapLike());
    // Demand far beyond the bus.
    EXPECT_TRUE(std::isinf(m.queryDuration(1e12)));
}

TEST(Frontier, PushtapDominatesMi)
{
    // Fig. 10: PUSHtap's frontier sits up and to the right of MI's.
    const FrontierModel push(pushtapLike());
    const FrontierModel mi(miLike());

    double push_peak_oltp = 0, mi_peak_oltp = 0;
    double push_peak_olap = 0, mi_peak_olap = 0;
    for (const auto &pt : push.sweep(64)) {
        push_peak_oltp = std::max(push_peak_oltp, pt.oltpTpmC);
        push_peak_olap = std::max(push_peak_olap, pt.olapQphH);
    }
    for (const auto &pt : mi.sweep(64)) {
        mi_peak_oltp = std::max(mi_peak_oltp, pt.oltpTpmC);
        mi_peak_olap = std::max(mi_peak_olap, pt.olapQphH);
    }
    EXPECT_GT(push_peak_oltp, mi_peak_oltp);
    EXPECT_GE(push_peak_olap, mi_peak_olap * 0.999);
}

TEST(Frontier, OlapFlatThenFalls)
{
    // The PUSHtap frontier holds peak OLAP throughput flat at low
    // OLTP rates (section 7.3.3) and degrades at the bus limit.
    const FrontierModel m(pushtapLike());
    const auto low = m.evaluate(m.maxTxnRate() * 0.01);
    const auto mid = m.evaluate(m.maxTxnRate() * 0.3);
    const auto high = m.evaluate(m.maxTxnRate() * 0.9);
    EXPECT_NEAR(low.olapQphH / mid.olapQphH, 1.0, 0.2);
    EXPECT_LT(high.olapQphH, low.olapQphH);
}

TEST(Frontier, MiOltpCollapsesUnderConsistencyLoad)
{
    const FrontierModel mi(miLike());
    const double rate = mi.maxTxnRate() * 0.9;
    const auto pt = mi.evaluate(rate);
    // The rebuild work steals most of the OLTP capacity.
    EXPECT_LT(pt.oltpTpmC, rate * 60.0 * 0.9);
}

TEST(Frontier, SweepIsWellFormed)
{
    const FrontierModel m(pushtapLike());
    const auto pts = m.sweep(16);
    EXPECT_GE(pts.size(), 8u);
    for (const auto &pt : pts) {
        EXPECT_GE(pt.oltpTpmC, 0.0);
        EXPECT_GE(pt.olapQphH, 0.0);
    }
}

} // namespace
} // namespace pushtap::htap
