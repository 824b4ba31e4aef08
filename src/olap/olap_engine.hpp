#pragma once

/**
 * @file
 * The PIM-side OLAP engine (sections 6.2, 6.3): analytical queries
 * execute as serial column scans, each split into alternating
 * load/compute phases across the PIM units, preceded by snapshotting
 * and (periodically) defragmentation.
 *
 * Queries are logical plans (olap/plan.hpp) executed by the physical
 * operator pipeline (olap/operators.hpp) over the snapshot bitmaps —
 * the returned aggregates are exact and verifiable against a
 * reference scan — while runQuery() prices each operator with the
 * two-phase schedule, the controller's offload overheads, and the
 * CPU-side transfer steps of the multi-column operators.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "common/worker_pool.hpp"
#include "dram/timing_model.hpp"
#include "memctrl/offload_costs.hpp"
#include "mvcc/defragmenter.hpp"
#include "mvcc/snapshotter.hpp"
#include "olap/operators.hpp"
#include "olap/plan.hpp"
#include "olap/query_report.hpp"
#include "pim/two_phase.hpp"
#include "txn/database.hpp"

namespace pushtap::olap {

struct OlapConfig
{
    dram::Geometry geom = dram::Geometry::dimmDefault();
    dram::TimingParams timing = dram::TimingParams::ddr5_3200();
    pim::PimConfig pimConfig = pim::PimConfig::upmemLike();
    /** Controller offload overheads (PUSHtap by default). */
    pim::OffloadOverheads overheads;
    /** Block-circulant placement on (affects PIM parallelism). */
    bool blockCirculant = true;
    /**
     * Host worker threads claiming the morsels of every query
     * phase — subquery pre-passes, join builds, the probe and the
     * group merge — plus the per-table snapshot and defragmentation
     * passes. 0 (default) = hardware concurrency, resolved at engine
     * construction; 1 runs everything inline on the calling thread.
     * Purely host-side: results and pricing are independent of the
     * worker count.
     */
    std::uint32_t workers = 0;
    /** Fixed per-defragmentation overhead (threads + activation). */
    TimeNs defragFixedNs = 50'000.0;
    /** Fixed per-snapshot overhead (thread wakeup). */
    TimeNs snapshotFixedNs = 5'000.0;

    static OlapConfig pushtapDimm();
    static OlapConfig pushtapHbm();
};

/** Cost of scanning one column once. */
struct ScanCost
{
    Bytes totalBytes = 0;      ///< Streamed across all units.
    Bytes bytesPerUnit = 0;
    std::uint32_t activeUnits = 0;
    pim::TwoPhaseSchedule schedule; ///< Per-unit phase schedule.
};

class OlapEngine
{
  public:
    OlapEngine(txn::Database &db, const OlapConfig &cfg);

    /** The configuration with workers resolved. */
    const OlapConfig &config() const { return cfg_; }

    /**
     * Bring every table's snapshot bitmaps up to @p ts. Tables
     * snapshot in parallel over the worker pool when the config has
     * one (they are fully independent: per-table snapshotter,
     * version manager and bitmaps); the modelled totals still fold
     * serially in table order, so the returned consistency charge is
     * bit-identical to the serial pass. Charged to the next query.
     */
    TimeNs prepareSnapshot(Timestamp ts);

    /**
     * Defragment every table with @p strategy — per-table parallel
     * over the worker pool like prepareSnapshot, with epoch-guarded
     * reclamation unchanged and the merged stats folded serially in
     * table order. Returns modelled time. Defragmentation pauses
     * OLTP (section 5.3), so PushtapDB charges it to the transaction
     * side; it is not added to the pending consistency charge, and
     * the next query pays only its snapshot.
     */
    TimeNs runDefragmentation(mvcc::DefragStrategy strategy);

    /** Pending consistency charge (cleared by the next query). */
    TimeNs pendingConsistencyNs() const { return pendingConsistency_; }

    /**
     * Execute @p plan through the operator pipeline over the current
     * snapshot, pricing every operator (scan / filter / join / group
     * / aggregate) through the two-phase and offload models.
     */
    QueryReport runQuery(const QueryPlan &plan,
                         QueryResult *result = nullptr);

    /**
     * Price @p plan as runQuery charges it, without executing
     * anything: one loop over planSteps (a PIM scan or CPU gather
     * per scan step, the partition transfers and bucket probe per
     * Join step), then priceMerge, which @p visible_rows feeds.
     * consistencyNs and rowsVisible are left zero.
     */
    QueryReport pricePlan(const QueryPlan &plan,
                          std::uint64_t visible_rows) const;

    /** Price one scan of @p column of table @p t as operator @p op. */
    ScanCost columnScanCost(const txn::TableRuntime &tbl, ColumnId c,
                            pim::OpType op) const;

    /**
     * Scan-cost core of columnScanCost; public so tests and benches
     * can reconstruct width-based charges (e.g. dictionary code
     * scans) exactly.
     */
    ScanCost scanCostForWidth(const txn::TableRuntime &tbl,
                              std::uint32_t width,
                              pim::OpType op) const;

    /** Last defragmentation's statistics (Fig. 11(d)). */
    const mvcc::DefragStats &lastDefragStats() const
    {
        return lastDefrag_;
    }

    /** Last snapshot pass statistics, summed over every table. */
    const mvcc::SnapshotStats &lastSnapshotStats() const
    {
        return lastSnapshot_;
    }

  private:
    /** Delta rows the PIM units must stream: every allocated delta
     *  block. */
    std::uint64_t scannedDeltaRows(const txn::TableRuntime &tbl) const;

    /** Charge one serial scan of @p width bytes per row over the
     *  table's scanned rows: its ScanCost schedule. */
    void priceScan(const txn::TableRuntime &tbl, std::uint32_t width,
                   pim::OpType op, QueryReport &rep) const;

    /** CPU-side merge charges that depend on the visible-row count. */
    void priceMerge(const QueryPlan &plan, std::uint64_t visible,
                    QueryReport &rep) const;

    /** PIM scan when unfragmented, CPU gather otherwise. */
    void priceColumnRead(const txn::TableRuntime &tbl,
                         const std::string &column, pim::OpType op,
                         QueryReport &rep) const;

    /** CPU fragment-gather of one column (normal-column path). */
    void priceCpuGather(const txn::TableRuntime &tbl,
                        const std::string &column,
                        QueryReport &rep) const;

    TimeNs takeConsistency();

    /** CPU time to move @p bytes over the memory bus. */
    TimeNs busTime(Bytes bytes) const;

    txn::Database &db_;
    OlapConfig cfg_;
    dram::BatchTimingModel timing_;
    pim::TwoPhaseModel twoPhase_;
    /** Reused across queries and the snapshot/defrag passes; null
     *  when the resolved worker count is one. */
    std::unique_ptr<WorkerPool> pool_;
    std::vector<mvcc::Snapshotter> snapshotters_;
    mvcc::Defragmenter defragmenter_;
    TimeNs pendingConsistency_ = 0.0;
    mvcc::DefragStats lastDefrag_;
    mvcc::SnapshotStats lastSnapshot_;
};

} // namespace pushtap::olap
