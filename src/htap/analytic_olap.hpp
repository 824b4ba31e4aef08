#pragma once

/**
 * @file
 * Analytic query pricing for the comparison systems of Fig. 9(b):
 *
 *  - *Ideal*: all columns already compact, execution time is scanning
 *    time only (no consistency work).
 *  - *MI*: the multi-instance PIM-based design (Polynesia-style [6])
 *    adapted to the same general-purpose DIMM PIM as PUSHtap: a
 *    row-store instance in CPU memory plus a column-store instance in
 *    PIM memory that must be *rebuilt* from the transaction log
 *    before a query can see fresh data.
 *
 * Both systems answer queries identically to the single-instance
 * engine by construction, so only times are modelled here: runQuery()
 * prices the operator steps the engine charges (olap::planSteps,
 * olap/plan.hpp) on clean packed columns.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dram/timing_model.hpp"
#include "mvcc/version_manager.hpp"
#include "olap/plan.hpp"
#include "olap/query_report.hpp"
#include "pim/two_phase.hpp"
#include "txn/database.hpp"

namespace pushtap::htap {

/** Which comparison system prices the query. */
enum class BaselineKind : std::uint8_t
{
    Ideal,
    MultiInstance,
    /** MI with the dedicated rebuild accelerator (MI (HBM), [6]). */
    MultiInstanceAccel,
};

class AnalyticOlapModel
{
  public:
    AnalyticOlapModel(const txn::Database &db,
                      const dram::Geometry &geom,
                      const dram::TimingParams &timing,
                      const pim::PimConfig &pim_cfg,
                      const pim::OffloadOverheads &overheads);

    /**
     * Scan time of @p width-byte column over @p rows at 100%
     * efficiency (the clean column-store instance).
     */
    pim::TwoPhaseSchedule idealColumnScan(std::uint64_t rows,
                                          std::uint32_t width) const;

    /**
     * Price @p plan on clean packed columns over current table
     * sizes, one loop over olap::planSteps: one ideal scan per scan
     * step, the partition transfers and bucket probe per Join step,
     * then the CPU merge and the consistency charge of @p kind. The
     * report's consistencyNs carries the column-store rebuild time
     * (zero for Ideal); cpuBlockedNs and rowsVisible stay zero.
     */
    olap::QueryReport runQuery(BaselineKind kind,
                               const olap::QueryPlan &plan,
                               std::uint64_t pending_versions) const;

    /**
     * Rebuild cost for @p versions pending transactions: the CPU
     * transfers every new-versioned row plus its metadata to the PIM
     * DRAM banks, then PIM units merge the metadata and copy the
     * rows into the column-store instance (section 7.3.2).
     */
    TimeNs rebuildTime(std::uint64_t versions, bool accel) const;

  private:
    TimeNs consistency(BaselineKind kind,
                       std::uint64_t pending_versions) const;

    const txn::Database &db_;
    dram::Geometry geom_;
    dram::BatchTimingModel timing_;
    pim::PimConfig pimCfg_;
    pim::TwoPhaseModel twoPhase_;
};

} // namespace pushtap::htap
