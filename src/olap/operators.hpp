#pragma once

/**
 * @file
 * The OLAP executor: executePlan() runs a logical QueryPlan — typed
 * column scans over the snapshot bitmaps, predicate filters,
 * equi-joins (build + probe), a grouped aggregate and a sort/limit —
 * and is the only way a plan executes.
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
 * bulk join probes with batched inner-join match expansion
 * into per-morsel index/payload-pointer vectors, and a filter+
 * aggregate pass fused into one loop when no join intervenes). The
 * pre-query phases are parallel too: every join build and scalar
 * subquery pre-pass scans its source through one morsel pipeline into
 * per-task row buffers, then places the keys in a BuildTable of
 * olap/group_table.hpp — direct-addressed by key slot when the keys'
 * observed domain is small enough (a bitset for semi/anti joins, an
 * offset array over the payload tuples for inner joins, flat slots
 * for subqueries), hashed into the partitioned GroupTable otherwise —
 * before the fan-out probes it strictly read-only. Per-worker partial accumulators
 * merge with commutative folds and materialize in a total order, so
 * results are byte-identical to the single-threaded run for every
 * worker count.
 *
 * The operators compute exact results over the MVCC snapshot — every
 * aggregate is verifiable against a reference scan through the
 * version chains — while the timing contribution of each operator is
 * accumulated separately by the pricing walks in olap_engine.cpp and
 * analytic_olap.cpp.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitmap.hpp"
#include "common/types.hpp"
#include "olap/batch.hpp"
#include "olap/plan.hpp"
#include "txn/database.hpp"

namespace pushtap {
class WorkerPool;
}

namespace pushtap::olap {

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

/** How one join build or subquery pre-pass placed its keys. */
struct BuildExecStats
{
    std::uint64_t rows = 0; ///< Rows its scan collected.
    /** Direct-addressed slots; 0 when the keys were hashed, and for
     *  a build that collected no row. */
    std::uint64_t denseSlots = 0;
};

/**
 * Measured execution statistics of the executor — observed, not
 * modelled. The cost-based optimizer's per-plan stats cache feeds on
 * these so repeated runs re-optimize from measured selectivities
 * (probe filter pass rates, per-join survival/expansion ratios)
 * instead of assumed ones. All counts are sums of per-scan-run
 * counts, and both the run list and each run's adaptive conjunct
 * order depend only on the table sizes and the morsel size, so the
 * stats are identical for every worker count.
 */
struct ExecStats
{
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
    /** Per plan join, and per plan subquery: the build's form. Sums
     *  over scan tasks and a domain read off the collected keys, so
     *  identical for every worker count too. */
    std::vector<BuildExecStats> joinBuilds;
    std::vector<BuildExecStats> subqueryBuilds;
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
     * intervened). The optimizer's fused-scan alternative
     * (OptimizedQuery::fuseProbeScans) prices these as one serial
     * scan instead of one per operator input.
     */
    std::uint32_t fusedScanColumns = 0;
    /**
     * Host wall-clock of the batch engine's execution phases, in
     * nanoseconds: the scalar-subquery pre-pass, the join build
     * phase (build scans + key placement), the
     * probe fan-out, and the final cross-worker merge/materialize.
     * Measured time, not modelled — the pricing walks never read
     * these.
     */
    double subqueryNs = 0.0;
    double buildNs = 0.0;
    double probeNs = 0.0;
    double mergeNs = 0.0;
    /** Observed selectivity statistics. */
    ExecStats stats;
    /**
     * Filled when ExecOptions::captureGroups was set: the merged
     * cross-worker group accumulators exactly as they stood before
     * the ungrouped-placeholder insertion and materialization
     * (count > 0 entries only, ascending group key — byte-identical
     * for every worker count).
     */
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
     * PlanExecution::groups. The result cache sets this on cold and
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
 * on malformed plans, including join or group keys wider than
 * kMaxKeyColumns).
 */
PlanExecution executePlan(const txn::Database &db,
                          const QueryPlan &plan,
                          const ExecOptions &opts = {});

/**
 * True when the batch engine runs @p plan's whole probe pass fused
 * (predicates + filter joins + grouping + aggregation in one morsel
 * loop): every join is a probe-keyed selection kernel — a semi or
 * anti join keyed purely on probe columns. Inner joins and payload-keyed
 * joins descend through the match expansion instead. Defined next to
 * the executor's own classification so the fused pricing gate and
 * the fusedScanColumns report cannot drift.
 */
bool planFusesProbePass(const QueryPlan &plan);

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

} // namespace pushtap::olap
