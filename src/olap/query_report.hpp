#pragma once

/**
 * @file
 * The one analytical-query result-report shape shared by every OLAP
 * pricing path: the single-instance engine (Fig. 9(b) decomposition)
 * and the comparison systems of htap/analytic_olap (Ideal / MI), which
 * answer queries identically by construction and differ only in how
 * `consistencyNs` is produced (snapshot + defragmentation vs. full
 * column-store rebuild).
 */

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace pushtap::olap {

/** One query's execution report (Fig. 9(b) decomposition). */
struct QueryReport
{
    std::string name;
    TimeNs pimNs = 0.0;         ///< PIM load + compute + offload.
    TimeNs cpuNs = 0.0;         ///< CPU-side operator work.
    TimeNs consistencyNs = 0.0; ///< Snapshot (+ defrag) or rebuild.
    TimeNs cpuBlockedNs = 0.0;  ///< Bank-lock time seen by OLTP.
    std::uint64_t rowsVisible = 0;
    /**
     * Distinct probe Int columns the batch executor streamed in one
     * fused filter+group+aggregate pass (0 when a join intervened).
     * Informational: only an optimized run whose chosen plan takes
     * the fused-scan alternative prices the pass as a single serial
     * scan.
     */
    std::uint32_t fusedScanColumns = 0;

    // ------ Cost-based optimizer surface (OlapConfig::optimize) ---
    // All defaulted to the "hand-built plan ran" values, so reports
    // from an optimize-off engine are unchanged field-for-field.

    /** True when the adaptive optimizer chose the physical plan. */
    bool optimized = false;
    /** Modelled cost (pim + cpu) of the hand-built plan, priced over
     *  the same snapshot and visible-row count. */
    TimeNs pricedHandBuiltNs = 0.0;
    /** Modelled cost of the chosen plan — never above
     *  pricedHandBuiltNs (the optimizer only accepts strictly
     *  cheaper transforms, priced in the hand-built summation
     *  order). */
    TimeNs pricedChosenNs = 0.0;
    /** Resolved host execution knobs the query actually ran with
     *  (0 when the optimizer was off); pricing never reads them. */
    std::uint32_t execWorkers = 0;
    std::uint32_t execMorselRows = 0;
    /** Scans the placement pass moved from PIM to the CPU gather
     *  path (Eq. (3)-style crossover, priced per site). */
    std::uint32_t cpuDemotedScans = 0;
    /** Joins not at their hand-built position / inner joins demoted
     *  to semi joins. */
    std::uint32_t joinsReordered = 0;
    std::uint32_t joinsDemoted = 0;
    /** One-line physical-plan summary (EXPLAIN's short form). */
    std::string planSummary;

    // ------ Result-cache surface (OlapConfig::resultCache) --------
    // All defaulted to the "cold full run" values, so reports from a
    // cache-off engine are unchanged field-for-field.

    /** True when the answer was served from the frontier-keyed cache
     *  without executing (exact hit: the footprint frontier vector
     *  matched the cached entry's). */
    bool cacheHit = false;
    /** Rows the delta-incremental path actually scanned — the rows
     *  appended to the probe table since the cached baseline. Zero on
     *  cold runs and exact hits. */
    std::uint64_t incrementalRows = 0;
    /** Measured wall-clock of the delta re-execution (scan of the
     *  appended rows + fold into the cached accumulators). Zero on
     *  cold runs and exact hits. */
    TimeNs deltaScanNs = 0.0;

    TimeNs
    totalNs() const
    {
        return pimNs + cpuNs + consistencyNs;
    }
};

} // namespace pushtap::olap
