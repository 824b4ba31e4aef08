#pragma once

/**
 * @file
 * Physical operators of the OLAP pipeline: a typed column scan over
 * the snapshot bitmaps, predicate filters, a hash join (build +
 * probe), a grouped aggregate and a sort/limit, composed by
 * executePlan() according to a logical QueryPlan.
 *
 * executePlan() is morsel-driven, batch-at-a-time and parallel: every
 * table pass splits into morsel-aligned scan runs (scanRuns, data
 * region then delta region) that the workers of a pool claim
 * dynamically, and each worker walks its runs in morsels through the
 * kernel layer of olap/batch.hpp (selection vectors from word-level
 * bitmap extraction, one typed column decode per morsel with a
 * zero-copy stride path for unfragmented columns, predicate kernels
 * — closed forms and expression trees with selectivity-adaptive
 * conjunct ordering — that compact the selection in place,
 * bulk-hashed join probes with batched inner-join match expansion
 * into per-morsel index/payload-pointer vectors, and a filter+
 * aggregate pass fused into one loop when no join intervenes). The
 * pre-query phases are parallel too: every join builds into the flat,
 * hash-partitioned GroupTable of olap/group_table.hpp with no
 * per-tuple allocation — semi/anti key sets deduped per worker and
 * merged partition-parallel, inner key → tuple-range tables stitched
 * per partition from per-run chunks in deterministic run order — and
 * scalar subqueries materialize through the same morsel pipeline
 * (per-worker flat group tables, partition-parallel merge) before
 * either is probed strictly read-only by the fan-out. Per-worker partial accumulators
 * merge with commutative folds and materialize in a total order, so
 * results are byte-identical to the single-threaded run for every
 * worker count. Shard counts (OlapConfig::shards) only shape the
 * modelled pricing; execution never reads them.
 * executePlanScalar() keeps the original row-at-a-time pipeline as
 * an independently-mechanised reference: both must produce
 * byte-identical results, and the fig9b bench reports their host
 * wall-clock side by side.
 *
 * The operators compute exact results over the MVCC snapshot — every
 * aggregate is verifiable against a reference scan through the
 * version chains — while the timing contribution of each operator is
 * accumulated separately by the pricing walks in olap_engine.cpp and
 * analytic_olap.cpp.
 */

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bitmap.hpp"
#include "common/types.hpp"
#include "olap/batch.hpp"
#include "olap/plan.hpp"
#include "storage/table_store.hpp"
#include "txn/database.hpp"

namespace pushtap {
class WorkerPool;
}

namespace pushtap::olap {

/** Apply fn(region, row) to every snapshot-visible row of a table. */
template <typename Fn>
void
forEachVisibleRow(const storage::TableStore &store, Fn &&fn)
{
    const auto &dv = store.dataVisible();
    for (std::size_t r = dv.findNext(0); r < dv.size();
         r = dv.findNext(r + 1))
        fn(storage::Region::Data, static_cast<RowId>(r));
    const auto &xv = store.deltaVisible();
    for (std::size_t r = xv.findNext(0); r < xv.size();
         r = xv.findNext(r + 1))
        fn(storage::Region::Delta, static_cast<RowId>(r));
}

/**
 * Row-at-a-time typed scan of one column of one table: the PIM
 * units' localized single read for unfragmented (key) columns, the
 * CPU fragment-gather path otherwise. Used by the scalar reference
 * executor; the batch engine reads through olap/batch.hpp instead.
 */
class ColumnScanner
{
  public:
    ColumnScanner(const txn::TableRuntime &tbl,
                  const std::string &column);

    const format::Column &column() const { return *column_; }

    std::int64_t intAt(storage::Region reg, RowId r) const;

    /**
     * Copy the raw column bytes of one row into @p out (at least the
     * column's width). The caller owns the buffer, so no view of
     * scanner-internal scratch ever escapes.
     */
    void charsAt(storage::Region reg, RowId r,
                 std::span<std::uint8_t> out) const;

  private:
    const storage::TableStore *store_;
    const format::Column *column_;
    ColumnId col_;
    bool single_; ///< One fragment: the fast columnValue path.
    mutable std::vector<std::uint8_t> buf_; ///< intAt decode scratch.
};

/** Predicate filter over one table's pushed-down predicates. */
class RowFilter
{
  public:
    RowFilter(const txn::TableRuntime &tbl, const TableInput &input);

    bool pass(storage::Region reg, RowId r) const;

  private:
    struct IntPred
    {
        ColumnScanner scan;
        std::int64_t lo, hi;
    };
    struct CharPred
    {
        ColumnScanner scan;
        std::string prefix;
        bool negate;
        mutable std::vector<std::uint8_t> buf; ///< Per-pred bytes.
    };
    std::vector<IntPred> intPreds_;
    std::vector<CharPred> charPreds_;
};

/** One output row of a plan. */
struct ResultRow
{
    std::vector<std::int64_t> keys; ///< Group-key values.
    std::vector<std::int64_t> aggs; ///< Aggregate values.
    std::uint64_t count = 0;        ///< Rows in the group.
};

struct QueryResult
{
    std::vector<ResultRow> rows;
};

/** Observed row flow through one join of the batch engine. */
struct JoinExecStats
{
    std::uint64_t in = 0;  ///< Entries probed into the join.
    std::uint64_t out = 0; ///< Entries surviving (or expanded) out.
};

/**
 * Measured execution statistics of the batch engine — observed, not
 * modelled. The cost-based optimizer's per-plan stats cache feeds on
 * these so repeated runs re-optimize from measured selectivities
 * (probe filter pass rates, per-join survival/expansion ratios)
 * instead of assumed ones. All counts are sums of per-scan-run
 * counts, and both the run list and each run's adaptive conjunct
 * order depend only on the table sizes and the morsel size, so the
 * stats are identical for every worker count (and every
 * OlapConfig::shards, which execution never reads). Left at the
 * defaults (collected == false) when the scalar reference executor
 * ran.
 */
struct ExecStats
{
    bool collected = false;
    /** Snapshot-visible probe rows entering the predicate chain. */
    std::uint64_t probeVisible = 0;
    /** Probe rows surviving the pushed-down predicate chain. */
    std::uint64_t probeFiltered = 0;
    /** Per plan join index (filter joins and descend joins alike). */
    std::vector<JoinExecStats> joins;
    /** (seen, kept) per probe expression conjunct, in the plan's
     *  original predicate order — the adaptive reorderer's measured
     *  selectivities (order-dependent counts, but the order is a
     *  per-run function of the data, not of the scheduling). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> conjuncts;
};

/**
 * One group's partial accumulator state, captured from the batch
 * engine's cross-worker merge before materialization. The key is the
 * inline group key (empty key, n == 0, for ungrouped plans), `aggs`
 * holds one partial per plan aggregate in plan order, `count` the
 * rows folded in. Folding two captures with foldGroups() and
 * materializing with materializeGroups() is byte-identical to one
 * cold run over the union of their input rows — every aggregate kind
 * is a commutative, associative fold (wrapping sums, counts,
 * min/max), which is what makes delta-incremental re-execution exact.
 */
struct GroupAccum
{
    InlineKey key;
    std::vector<std::int64_t> aggs;
    std::uint64_t count = 0;
};

struct PlanExecution
{
    QueryResult result;
    /** Snapshot-visible rows of the probe table (filtered or not). */
    std::uint64_t rowsVisible = 0;
    /**
     * Number of distinct probe Int columns the batch engine streamed
     * in a single fused filter+group+aggregate pass (0 when a join
     * intervened or the scalar executor ran). OlapConfig::fuseScans
     * prices these as one serial scan instead of one per operator
     * input.
     */
    std::uint32_t fusedScanColumns = 0;
    /**
     * Host wall-clock of the batch engine's execution phases, in
     * nanoseconds: the scalar-subquery pre-pass, the join build
     * phase (partitioned scan + inner stitch or key-set merge), the
     * probe fan-out, and the final cross-worker merge/materialize.
     * Measured time, not modelled — the pricing walks never read
     * these. All zero when the scalar reference executor ran.
     */
    double subqueryNs = 0.0;
    double buildNs = 0.0;
    double probeNs = 0.0;
    double mergeNs = 0.0;
    /** Observed selectivity statistics (batch engine only). */
    ExecStats stats;
    /**
     * Filled when ExecOptions::captureGroups was set and the batch
     * engine ran: the merged cross-worker group accumulators exactly
     * as they stood before the ungrouped-placeholder insertion and
     * materialization (count > 0 entries only, ascending group key —
     * byte-identical for every worker count). False when the scalar
     * fallback executed — scalar runs never capture.
     */
    bool groupsCaptured = false;
    std::vector<GroupAccum> groups;
};

/**
 * Host-side execution options of the batch engine: how many worker
 * threads claim the scan runs and how many rows a morsel holds.
 * Results, captured groups and ExecStats are byte-identical for
 * every worker count: the run list is fixed by the table sizes and
 * the morsel size, and per-worker partials merge with commutative
 * folds. OlapEngine passes its OlapConfig::workers and pool; a bare
 * executePlan() call stays single-threaded unless asked otherwise.
 */
struct ExecOptions
{
    /** Worker threads (0 = hardware concurrency); ignored when
     *  `pool` is set. */
    std::uint32_t workers = 1;
    /** Rows per morsel; must be a power of two (fatal otherwise). */
    std::uint32_t morselRows = kMorselRows;
    /**
     * External pool to run on (overrides `workers`); nullptr spawns
     * a transient pool when workers resolves to more than one.
     */
    WorkerPool *pool = nullptr;
    /**
     * Capture the merged group accumulators into
     * PlanExecution::groups (batch engine only; the scalar fallback
     * ignores it). The result cache sets this on cold and
     * incremental runs so the accumulators can seed later
     * delta-incremental re-executions.
     */
    bool captureGroups = false;
    /**
     * Baseline visibility bitmaps of the probe table (both or
     * neither). When set, the probe pass scans only rows visible now
     * but NOT in the baseline — the rows appended since the baseline
     * was captured — and PlanExecution::rowsVisible counts just
     * those. Join builds and subquery pre-passes still scan their
     * full tables. Only sound when the probe table changed by pure
     * appends since the baseline (no previously visible bit cleared,
     * no defragmentation); the result cache checks exactly that
     * before setting these.
     */
    const Bitmap *probeBaselineData = nullptr;
    const Bitmap *probeBaselineDelta = nullptr;
};

/**
 * Execute @p plan exactly over the current snapshot bitmaps of @p db
 * with the morsel-driven batch engine, fanning scan runs out over
 * @p opts' worker pool. The plan is validated first (fatal
 * on malformed plans). Plans whose join or group keys exceed the
 * batch engine's inline-key capacity (8 columns) fall back to the
 * scalar executor — same results, row-at-a-time speed.
 */
PlanExecution executePlan(const txn::Database &db,
                          const QueryPlan &plan,
                          const ExecOptions &opts = {});

/**
 * True when the batch engine runs @p plan's whole probe pass fused
 * (predicates + filter joins + grouping + aggregation in one morsel
 * loop): the plan fits the inline-key engine (no scalar fallback)
 * and every join is a probe-keyed selection kernel — a semi or anti
 * join keyed purely on probe columns. Inner joins and payload-keyed
 * joins descend through the match expansion instead. Defined next to
 * the executor's own classification so the OlapConfig::fuseScans
 * pricing gate and the fusedScanColumns report cannot drift.
 */
bool planFusesProbePass(const QueryPlan &plan);

/**
 * True when @p plan fits the inline-key batch engine (group-by and
 * every join's key set within InlineKey capacity). Plans that don't
 * fit fall back to the scalar executor, which cannot capture group
 * accumulators — the result cache uses this as an eligibility gate
 * for delta-incremental re-execution.
 */
bool fitsBatchEngine(const QueryPlan &plan);

/**
 * Fold @p from into @p into with the batch engine's cross-worker
 * merge semantics (wrapping sums, counts, min/max with the
 * first-value rule), matching groups by key and inserting unmatched
 * ones in key order. Both inputs must be ascending by key with
 * distinct keys, as captures are; @p into stays so. Entries must
 * carry aggs sized to @p plan's aggregate list.
 */
void foldGroups(const QueryPlan &plan, std::vector<GroupAccum> &into,
                const std::vector<GroupAccum> &from);

/**
 * Materialize @p groups into result rows exactly as the batch
 * engine's tail does: the ungrouped zero-placeholder row when an
 * ungrouped plan produced no groups, then the plan's sort (ties by
 * ascending group key) and limit. Byte-identical to a cold
 * executePlan() fed the same accumulator state.
 */
QueryResult materializeGroups(const QueryPlan &plan,
                              const std::vector<GroupAccum> &groups);

/**
 * Row-at-a-time reference executor (the pre-batching pipeline):
 * per-row typed scans, string-encoded hash keys, ordered-map
 * grouping. Kept as an independently-mechanised oracle for the
 * batch engine and as the baseline the fig9b bench measures host
 * wall-clock speedup against.
 */
PlanExecution executePlanScalar(const txn::Database &db,
                                const QueryPlan &plan);

} // namespace pushtap::olap
