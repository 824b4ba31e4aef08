#pragma once

/**
 * @file
 * The OLAP executor: executePlan() runs a logical QueryPlan — typed
 * column scans over the snapshot bitmaps, predicate filters,
 * equi-joins (build + probe), a grouped aggregate and a sort/limit —
 * and is the only way a plan executes.
 *
 * executePlan() is morsel-driven, batch-at-a-time and parallel: every
 * table pass splits into one task per morsel (scanMorsels, data
 * region then delta region) that the workers of a pool claim
 * dynamically, and each worker runs its morsels through the kernel
 * layer of olap/batch.hpp (selection vectors from word-level bitmap
 * extraction, one typed column decode per morsel with a zero-copy
 * stride path for unfragmented columns, predicate kernels — closed
 * forms, then expression trees in plan order — that compact the
 * selection in place,
 * bulk join probes with batched inner-join match expansion
 * into per-morsel index/payload-pointer vectors, and one GroupFold
 * per worker that every batch of surviving entries ends in: straight
 * off the gathered columns when no join intervenes, after the
 * expansion otherwise). The pre-query phases are parallel too: every
 * join build and scalar subquery pre-pass scans its source through
 * one morsel pipeline into per-task row buffers, then places the keys
 * in a BuildTable of olap/group_table.hpp by key slot (a bitset for
 * semi/anti joins, an offset array over the payload tuples for inner
 * joins, flat slots for subqueries): the key's offset in the keys'
 * observed domain when that is small enough, its number in a
 * GroupTable of the distinct keys otherwise. The fan-out probes it
 * strictly read-only. After the fan-out every worker's fold flushes
 * its key-domain window into one GroupTable, the per-worker tables
 * merge once with commutative folds (mergeGroupTables), and the groups
 * materialize in a total order, so results are byte-identical to the
 * single-threaded run for every worker count.
 *
 * The operators compute exact results over the MVCC snapshot — every
 * aggregate is verifiable against a reference scan through the
 * version chains — while the timing contribution of each operator is
 * priced separately, from the plan's operator steps (planSteps,
 * olap/plan.hpp), by OlapEngine::pricePlan and the Ideal/MI
 * baselines in htap/analytic_olap.cpp.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

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

/** How one join build or subquery pre-pass placed its keys. */
struct BuildExecStats
{
    std::uint64_t rows = 0; ///< Rows its scan collected.
    /** Key-domain slots; 0 when the keys were numbered, and for a
     *  build that collected no row. */
    std::uint64_t denseSlots = 0;
};

/**
 * Measured execution statistics of the executor — observed, not
 * modelled: the form each build took. Build rows are sums over scan
 * tasks and the dense domain is read off the collected keys, so the
 * stats are identical for every worker count.
 */
struct ExecStats
{
    /** Per plan join, and per plan subquery: the build's form. */
    std::vector<BuildExecStats> joinBuilds;
    std::vector<BuildExecStats> subqueryBuilds;
};

struct PlanExecution
{
    QueryResult result;
    /** Snapshot-visible rows of the probe table (filtered or not). */
    std::uint64_t rowsVisible = 0;
    /**
     * Host wall-clock of the batch engine's execution phases, in
     * nanoseconds: the scalar-subquery pre-pass, the join build
     * phase (build scans + key placement), the
     * probe fan-out, and the final cross-worker merge/materialize.
     * Measured time, not modelled — the pricing never reads
     * these.
     */
    double subqueryNs = 0.0;
    double buildNs = 0.0;
    double probeNs = 0.0;
    double mergeNs = 0.0;
    /** Observed build forms. */
    ExecStats stats;
};

/**
 * Host-side execution options of the batch engine: how many worker
 * threads claim the morsels and how many rows a morsel holds.
 * Results and ExecStats are byte-identical for every worker count:
 * the task list is fixed by the table sizes and the morsel size, and
 * per-worker partials merge with commutative folds. OlapEngine passes
 * its OlapConfig::workers and pool; a bare executePlan() call stays
 * single-threaded unless asked otherwise.
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
};

/**
 * Execute @p plan exactly over the current snapshot bitmaps of @p db
 * with the morsel-driven batch engine, fanning its morsels out over
 * @p opts' worker pool. The plan is validated first (fatal
 * on malformed plans, including join or group keys wider than
 * kMaxKeyColumns).
 */
PlanExecution executePlan(const txn::Database &db,
                          const QueryPlan &plan,
                          const ExecOptions &opts = {});

} // namespace pushtap::olap
