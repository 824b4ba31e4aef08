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
#include <map>
#include <memory>
#include <set>
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
#include "olap/result_cache.hpp"
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
     * Host worker threads claiming the scan runs of every query
     * phase — subquery pre-passes, join builds, the probe and the
     * group merge — plus the per-table snapshot and defragmentation
     * passes. 0 (default) = hardware concurrency, resolved at engine
     * construction; 1 runs everything inline on the calling thread.
     * Purely host-side: results and pricing are independent of the
     * worker count.
     */
    std::uint32_t workers = 0;
    /** morselRows sentinel: resolves to kMorselRows at engine
     *  construction. */
    static constexpr std::uint32_t kMorselRowsAuto = 0;
    /**
     * Rows per morsel of the batch executor. Must be a power of two
     * when set explicitly (validated at engine construction);
     * kMorselRowsAuto (the default) resolves to kMorselRows.
     * Explicitly set values are always authoritative — the adaptive
     * optimizer only retunes a defaulted morsel size.
     */
    std::uint32_t morselRows = kMorselRowsAuto;
    /**
     * Cost-based adaptive optimizer (olap/optimizer.hpp): every
     * runQuery() first prices candidate physical plans through the
     * ScanCost walk — join order, inner-to-semi demotion, per-scan
     * CPU-vs-PIM placement, probe-pass fusion — resolves the host
     * execution knobs (workers/morselRows) from table
     * cardinalities and hardware threads, and executes the chosen
     * plan. Results are byte-identical to the hand-built plan (only
     * result-preserving transforms are ever candidates) and the
     * chosen plan's priced cost is never above the hand-built
     * plan's. Off by default: all golden QueryReport decompositions
     * assume the hand-built plans. The PUSHTAP_OLAP_OPTIMIZE
     * environment variable (any value but "0") forces it on, the
     * same switch shape as PUSHTAP_FORCE_SCALAR_KERNELS.
     */
    bool optimize = false;
    /** True when PUSHTAP_OLAP_OPTIMIZE forces the optimizer on. */
    static bool optimizeForcedByEnv();
    /**
     * Frontier-keyed result cache with delta-incremental aggregate
     * re-execution (olap/result_cache.hpp): repeated queries whose
     * footprint frontier is unchanged are answered from the cache
     * without executing, and eligible plans whose probe table moved
     * by pure appends re-scan only the appended rows, folding them
     * into the cached group accumulators. Answers are always
     * byte-identical to a cold run at the same frontier. Off by
     * default: all golden QueryReport decompositions assume cold
     * runs. The PUSHTAP_OLAP_RESULT_CACHE environment variable (any
     * value but "0") forces it on, the same switch shape as
     * PUSHTAP_OLAP_OPTIMIZE.
     */
    bool resultCache = false;
    /** True when PUSHTAP_OLAP_RESULT_CACHE forces the cache on. */
    static bool resultCacheForcedByEnv();
    /** Fixed per-defragmentation overhead (threads + activation). */
    TimeNs defragFixedNs = 50'000.0;
    /** Fixed per-snapshot overhead (thread wakeup). */
    TimeNs snapshotFixedNs = 5'000.0;

    static OlapConfig pushtapDimm();
    static OlapConfig pushtapHbm();
};

/**
 * One scan site of a plan: a (table, column) pair named by schema
 * name. The optimizer's placement pass demotes sites from the PIM
 * scan path to the CPU gather path when the priced plan total drops
 * — the runtime counterpart of the Eq. (3) CPU/PIM crossover.
 */
struct ScanSite
{
    std::string table; ///< Schema name (TableSchema::name()).
    std::string column;

    auto operator<=>(const ScanSite &) const = default;
};

/** Scan sites priced on the CPU gather path instead of PIM. */
using PlacementSet = std::set<ScanSite>;

/**
 * Observed statistics of one plan's past optimized runs — the
 * per-plan stats cache closing the optimizer's feedback loop.
 * Populated from the batch executor's measured counts (ExecStats)
 * after every optimized run, read by the next optimizePlan() so
 * repeated runs rank join orders from observed, not assumed,
 * selectivities.
 */
struct PlanStats
{
    std::uint64_t runs = 0;
    /** Snapshot-visible probe rows of the last run. */
    std::uint64_t probeVisible = 0;
    /** Probe rows surviving the predicate chain in the last run. */
    std::uint64_t probeFiltered = 0;
    struct JoinObserved
    {
        std::uint64_t in = 0, out = 0;
    };
    /** Keyed by join signature (build table / kind / key columns),
     *  so the observation survives reordering between runs. */
    std::map<std::string, JoinObserved> joins;
    /** (seen, kept) per probe expression conjunct, original order —
     *  the adaptive reorderer's measured pass rates. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> conjuncts;
};

struct OptimizedQuery;

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

    /**
     * Persists the optimizer's per-plan stats cache to the file
     * named by PUSHTAP_OLAP_STATS_FILE (when set and any stats were
     * observed) so knob learning survives engine instances.
     */
    ~OlapEngine();

    /** The configuration with workers and morselRows resolved. */
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
     * table order. Returns modelled time (also charged to the next
     * query's consistency share).
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
     * Run the cost-based optimizer over @p plan without executing
     * it: returns the chosen physical plan, resolved knobs, scan
     * placements and priced costs (olap/optimizer.hpp). runQuery()
     * calls this when cfg_.optimize is on; callable directly for
     * EXPLAIN (describePlan) regardless of the flag.
     */
    OptimizedQuery optimizePlan(const QueryPlan &plan) const;

    /**
     * Price @p plan through the full modelled walk (priceQuery +
     * priceMerge) without executing anything: the optimizer's cost
     * function. @p fuse_probe_scans prices a fusing plan's probe
     * pass as one serial scan (section 6.2's per-operator charges
     * otherwise); @p cpu_demotions (may be null) prices those scan
     * sites on the CPU gather path; @p visible_rows feeds the
     * visible-row-dependent merge terms (identical across candidate
     * plans, so it never affects the ranking). consistencyNs is left
     * zero.
     */
    QueryReport pricePlan(const QueryPlan &plan,
                          bool fuse_probe_scans,
                          const PlacementSet *cpu_demotions,
                          std::uint64_t visible_rows) const;

    /** Observed stats of @p plan_name's past optimized runs (null
     *  when it never ran with the optimizer on). */
    const PlanStats *planStats(const std::string &plan_name) const
    {
        const auto it = statsCache_.find(plan_name);
        return it == statsCache_.end() ? nullptr : &it->second;
    }

    /** The result cache, when cfg_.resultCache is on (else null) —
     *  benches and tests read its hit/incremental counters. */
    const ResultCache *resultCache() const { return cache_.get(); }

    /** Price one scan of @p column of table @p t as operator @p op. */
    ScanCost columnScanCost(const txn::TableRuntime &tbl, ColumnId c,
                            pim::OpType op) const;

    /**
     * Scan-cost core shared by per-column and fused pricing; public
     * so tests and benches can reconstruct width-based charges
     * (e.g. dictionary code scans) exactly.
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
    /** Rows the PIM units must stream in each region. */
    std::uint64_t scannedDataRows(const txn::TableRuntime &tbl) const;
    std::uint64_t scannedDeltaRows(const txn::TableRuntime &tbl) const;

    /**
     * Accumulate the plan's operator timing contributions into
     * @p rep: PIM scan schedules for predicates / group keys /
     * aggregates, hash + partition + probe work per join, and the
     * CPU gather path for char-predicate (normal) columns. When
     * @p fuse_probe_scans is set (the optimizer chose the fused
     * alternative and the executor fused the probe pass), the
     * probe's PIM-scannable columns are priced as one fused serial
     * scan instead.
     */
    void priceQuery(const QueryPlan &plan, bool fuse_probe_scans,
                    QueryReport &rep) const;

    /** One serial scan streaming all @p columns' slot bytes. */
    void priceFusedScan(const txn::TableRuntime &tbl,
                        const std::vector<ColumnId> &columns,
                        QueryReport &rep) const;

    /**
     * Charge the distinct columns an expression set streams over
     * @p tbl: one serial scan (as @p op) per Int column, the CPU
     * gather path per Char (LIKE) column — the same ScanCost
     * footprints the closed predicate forms charge.
     */
    void priceExprColumns(const txn::TableRuntime &tbl,
                          const std::vector<ExprPtr> &exprs,
                          pim::OpType op, QueryReport &rep) const;

    /**
     * Charge each scalar-subquery pre-pass: source filters, group
     * and aggregate-input scans, plus the probe-side key lookup
     * columns (skipped when @p probe_keys_fused — the fused probe
     * pass already streams them).
     */
    void priceSubqueries(const QueryPlan &plan,
                         bool probe_keys_fused,
                         QueryReport &rep) const;

    /** Charge one serial scan of @p width bytes per row over the
     *  table's scanned rows: its ScanCost schedule. */
    void priceScan(const txn::TableRuntime &tbl, std::uint32_t width,
                   pim::OpType op, QueryReport &rep) const;

    /** CPU-side merge charges that depend on the visible-row count. */
    void priceMerge(const QueryPlan &plan, std::uint64_t visible,
                    QueryReport &rep) const;

    /** PIM scan when unfragmented (and not demoted by the active
     *  placement set), CPU gather otherwise. */
    void priceColumnRead(const txn::TableRuntime &tbl,
                         const std::string &column, pim::OpType op,
                         QueryReport &rep) const;

    /** True when the active placement set routes this scan site to
     *  the CPU gather path. */
    bool demotedToCpu(const txn::TableRuntime &tbl,
                      const std::string &column) const;

    /** runQuery with cfg_.optimize on: optimize, execute the chosen
     *  plan with the resolved knobs, feed observed stats back into
     *  the cache, and price chosen vs hand-built. When @p exec_out
     *  is non-null, the execution captures group accumulators into
     *  it (for the result cache). */
    QueryReport runQueryOptimized(const QueryPlan &plan,
                                  QueryResult *result,
                                  PlanExecution *exec_out = nullptr);

    /** The cache-off runQuery body: optimized or plain execution
     *  plus the full pricing walk. When @p exec_out is non-null the
     *  run captures group accumulators into it and *exec_out keeps
     *  the executed PlanExecution (result included). */
    QueryReport runQueryUncached(const QueryPlan &plan,
                                 QueryResult *result,
                                 PlanExecution *exec_out);

    /** runQuery with cfg_.resultCache on: exact-hit lookup, then
     *  delta-incremental re-execution, then full-run fallback (which
     *  refreshes the entry). */
    QueryReport runQueryCached(const QueryPlan &plan,
                               QueryResult *result);

    /** Delta-incremental re-execution against @p entry: scan only
     *  the probe rows appended since the cached baseline, fold into
     *  the cached accumulators, refresh the entry at @p current. */
    QueryReport runQueryIncremental(const QueryPlan &plan,
                                    QueryResult *result,
                                    ResultCache::Entry &entry,
                                    htap::FrontierVector current);

    /** Load/save the optimizer stats cache from the
     *  PUSHTAP_OLAP_STATS_FILE path (no-ops when unset). */
    void loadStatsFile();
    void saveStatsFile() const;

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
    /** True when morselRows came from kMorselRowsAuto rather than
     *  an explicit user setting — the only case the optimizer may
     *  tune it. */
    bool morselAuto_ = false;
    /** Placement set consulted by priceColumnRead during a
     *  pricePlan walk (null outside one); mutable because pricing
     *  is logically const. */
    mutable const PlacementSet *activePlacements_ = nullptr;
    /** Per-plan observed-stats cache, keyed by plan name. */
    std::map<std::string, PlanStats> statsCache_;
    /**
     * Scanned-row override consulted by scannedDataRows /
     * scannedDeltaRows while pricing an incremental run: the probe
     * table is charged its delta-only row counts (the rows actually
     * scanned) while every other table keeps its full counts — the
     * delta-only ScanCost schedule the report and the optimizer's
     * stats see. Null outside an incremental pricing walk; mutable
     * for the same reason as activePlacements_.
     */
    mutable const txn::TableRuntime *scanOverrideTbl_ = nullptr;
    mutable std::uint64_t scanOverrideDataRows_ = 0;
    mutable std::uint64_t scanOverrideDeltaRows_ = 0;
    /** The frontier-keyed result cache (null unless
     *  cfg_.resultCache). */
    std::unique_ptr<ResultCache> cache_;
    /** PUSHTAP_OLAP_STATS_FILE value at construction (empty when
     *  unset): the optimizer stats persistence path. */
    std::string statsFile_;
};

} // namespace pushtap::olap
