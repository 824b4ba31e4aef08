#include "htap/frontier.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace pushtap::htap {

double
FrontierModel::maxTxnRate() const
{
    // Core-bound: each core retires one transaction per txnCpuNs.
    return static_cast<double>(p_.cores) / p_.txnCpuNs * 1e9;
}

TimeNs
FrontierModel::queryDuration(double txn_rate) const
{
    const double bus = p_.busBandwidth.bytesPerNs(); // bytes/ns
    const double oltp_demand =
        txn_rate * p_.txnBusBytes / 1e9; // bytes/ns
    const double avail = bus - oltp_demand;
    if (avail <= 0.0)
        return std::numeric_limits<double>::infinity();

    // T = pim + queryBytes/avail
    //       + R * T * vpt * (consBytes/avail + consPimNs).
    const double vpt = p_.versionsPerTxn;
    const double rate_ns = txn_rate / 1e9; // txns per ns
    const double cons_per_txn_ns =
        vpt * (p_.consistencyBusBytesPerVersion / avail +
               p_.consistencyPimNsPerVersion);
    const double base = p_.queryPimNs + p_.queryCpuBusBytes / avail;
    const double k = rate_ns * cons_per_txn_ns;
    if (k >= 1.0)
        return std::numeric_limits<double>::infinity();
    return base / (1.0 - k);
}

FrontierPoint
FrontierModel::evaluate(double txn_rate) const
{
    FrontierPoint pt;
    const TimeNs t_q = queryDuration(txn_rate);
    if (!std::isfinite(t_q))
        return pt; // infeasible: zero throughput both sides

    // Fraction of wall time the OLTP engine is stalled by the OLAP
    // side: bank-locked LS phases always; the whole consistency pass
    // as well for MI.
    double stall = p_.queryCpuBlockedNs / t_q;
    if (p_.consistencyBlocksOltp) {
        const double vpt = p_.versionsPerTxn;
        const double bus = p_.busBandwidth.bytesPerNs();
        const double cons_ns =
            txn_rate / 1e9 * t_q * vpt *
            (p_.consistencyBusBytesPerVersion / bus +
             p_.consistencyPimNsPerVersion);
        stall += cons_ns / t_q;
    }
    stall = std::min(stall, 1.0);

    const double achievable =
        std::min(txn_rate, maxTxnRate() * (1.0 - stall));
    pt.oltpTpmC = achievable * 60.0;
    pt.olapQphH = 3600.0 * 1e9 / t_q;
    return pt;
}

std::vector<FrontierPoint>
FrontierModel::sweep(int points) const
{
    std::vector<FrontierPoint> out;
    const double rmax = maxTxnRate();
    for (int i = 0; i < points; ++i) {
        const double r =
            rmax * static_cast<double>(i) / (points - 1);
        const auto pt = evaluate(r);
        if (pt.olapQphH > 0.0 || pt.oltpTpmC > 0.0)
            out.push_back(pt);
    }
    return out;
}

} // namespace pushtap::htap
