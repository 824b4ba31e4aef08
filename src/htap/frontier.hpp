#pragma once

/**
 * @file
 * Throughput-frontier model (Fig. 10): the set of simultaneously
 * achievable (OLTP tpmC, OLAP QphH) operating points for PUSHtap and
 * the multi-instance baseline.
 *
 * Steady state: analytical queries run back to back; transactions
 * arrive at rate R. The two sides couple through (a) memory-bus
 * contention — transaction line traffic and the query's CPU-side
 * transfers plus consistency traffic share the bus — and (b)
 * execution blocking: PUSHtap's LS phases lock banks briefly, while
 * MI's rebuild occupies both the bus and the row-store instance.
 */

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "common/units.hpp"

namespace pushtap::htap {

/** One achievable operating point. */
struct FrontierPoint
{
    double oltpTpmC = 0.0;  ///< Transactions per minute.
    double olapQphH = 0.0;  ///< Queries per hour.
};

/** Per-system workload profile feeding the model. */
struct FrontierProfile
{
    std::uint32_t cores = 16;

    // Per-transaction costs (from a calibration run of the engine).
    TimeNs txnCpuNs = 3000.0;    ///< CPU-side work per transaction.
    double txnBusBytes = 700.0;  ///< Line traffic per transaction.
    double versionsPerTxn = 13.5;

    // Per-query costs.
    TimeNs queryPimNs = 1.0e6;       ///< PIM scan time.
    double queryCpuBusBytes = 1.0e6; ///< CPU transfer bytes.
    TimeNs queryCpuBlockedNs = 0.0;  ///< Bank-locked time per query.

    // Consistency traffic per pending version.
    double consistencyBusBytesPerVersion = 24.0; ///< Over the bus.
    TimeNs consistencyPimNsPerVersion = 0.0;     ///< PIM-side share.

    /** MI only: consistency work locks the OLTP instance. */
    bool consistencyBlocksOltp = false;

    Bandwidth busBandwidth = Bandwidth::gbPerSec(99.0);
};

class FrontierModel
{
  public:
    explicit FrontierModel(const FrontierProfile &profile)
        : p_(profile)
    {}

    const FrontierProfile &profile() const { return p_; }

    /** Core-bound OLTP ceiling (txn/s) with no OLAP running. */
    double maxTxnRate() const;

    /**
     * Steady-state query duration at transaction rate @p txn_rate
     * (txn/s), solving the consistency fixed point. Returns +inf when
     * the bus cannot sustain the rate.
     */
    TimeNs queryDuration(double txn_rate) const;

    /** The achievable point at @p txn_rate (queries back to back). */
    FrontierPoint evaluate(double txn_rate) const;

    /** Sweep the frontier with @p points samples. */
    std::vector<FrontierPoint> sweep(int points = 32) const;

  private:
    FrontierProfile p_;
};

} // namespace pushtap::htap
