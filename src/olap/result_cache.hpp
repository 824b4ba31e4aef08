#pragma once

/**
 * @file
 * Frontier-keyed result cache with delta-incremental aggregate
 * re-execution (the result-reuse layer behind
 * OlapConfig::resultCache).
 *
 * Every cached entry is keyed by the plan's structural fingerprint
 * (olap/optimizer.hpp describePlan — all predicate constants
 * included) and remembers the commit-frontier vector of the plan's
 * footprint tables (htap/frontier.hpp) at execution time:
 *
 *  - **Exact hit**: the footprint frontier vector is unchanged —
 *    nothing any footprint table exposes to a reader moved — so the
 *    materialized QueryResult and QueryReport are returned without
 *    executing anything.
 *
 *  - **Delta-incremental re-execution**: only the probe table moved,
 *    and it moved by *pure appends* (every visibility bit set at the
 *    cached frontier is still set, no defragmentation recycled
 *    slots). The engine re-runs the plan scanning only the rows
 *    appended since the baseline (ExecOptions::probeBaseline*) and
 *    folds the delta group accumulators into the cached ones with
 *    the executor's own commutative merge (foldGroups), then
 *    materializes through the executor's own tail
 *    (materializeGroups). Because every aggregate kind is a
 *    commutative, associative fold, the answer is byte-identical to
 *    a cold full run at the same frontier.
 *
 *  - Anything else (update-in-place to a footprint table, a changed
 *    build/subquery table, anti joins) falls back to full execution,
 *    which refreshes the entry.
 */

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitmap.hpp"
#include "htap/frontier.hpp"
#include "olap/operators.hpp"
#include "olap/plan.hpp"
#include "olap/query_report.hpp"

namespace pushtap::olap {

/**
 * The tables a plan reads: probe + every join build + every subquery
 * source (order preserved, duplicates kept — captureFrontier dedups).
 * Column references always resolve to one of these (tableOf), so
 * this is the complete read footprint.
 */
std::vector<workload::ChTable> planFootprint(const QueryPlan &plan);

/**
 * Static half of the delta-incremental eligibility gate: the plan
 * must carry no anti join (kept conservatively out per the fallback
 * contract — a NOT EXISTS over a footprint that moved is the classic
 * non-monotone trap). The dynamic half — which tables moved and
 * how — is checked per run by the engine against the cached entry.
 */
bool incrementalCapable(const QueryPlan &plan);

class ResultCache
{
  public:
    struct Entry
    {
        /** Footprint frontier vector at the time `result` was
         *  computed (cold or refreshed incrementally). */
        htap::FrontierVector frontier;
        /** Probe-table visibility bitmaps at that frontier — the
         *  incremental baseline. */
        Bitmap probeData;
        Bitmap probeDelta;
        /** Merged group accumulators (count > 0 entries only): the
         *  seeds of incremental runs of incrementalCapable plans. */
        std::vector<GroupAccum> groups;
        /** Snapshot-visible probe rows behind `groups`. */
        std::uint64_t rowsVisible = 0;
        QueryResult result;
        /** The stored run's report, with cacheHit left false; exact
         *  hits copy it out and flag the copy. */
        QueryReport report;
    };

    /** Entry for @p fingerprint, or nullptr. */
    Entry *find(const std::string &fingerprint);

    /** Entry for @p fingerprint, default-created when absent. */
    Entry &upsert(const std::string &fingerprint);

    std::size_t size() const { return entries_.size(); }

    // Counters, for benches and tests.
    std::uint64_t hits = 0;         ///< Exact hits served.
    std::uint64_t incrementals = 0; ///< Delta re-executions.
    std::uint64_t misses = 0;       ///< Cold / fallback full runs.

  private:
    std::unordered_map<std::string, Entry> entries_;
};

} // namespace pushtap::olap
