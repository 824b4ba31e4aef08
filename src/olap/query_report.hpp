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

    // Always false / zero: the engine executes and prices the
    // hand-built plan on every query and keeps no result cache. Kept
    // because the end-to-end benchmark driver
    // (benchmark/pushtap_bench/workloads.cpp) still records them.
    bool optimized = false;
    bool cacheHit = false;
    std::uint64_t incrementalRows = 0;

    TimeNs
    totalNs() const
    {
        return pimNs + cpuNs + consistencyNs;
    }
};

} // namespace pushtap::olap
