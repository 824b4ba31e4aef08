#pragma once

/**
 * @file
 * Cost-based adaptive query optimizer: the loop closing the pricing
 * model (olap_engine.cpp's ScanCost walk) back into plan choice and
 * knob auto-tuning.
 *
 * OlapEngine::optimizePlan() takes a hand-built logical QueryPlan
 * plus the live table statistics (row counts, delta sizes, column
 * layouts) and emits an OptimizedQuery: a physical plan chosen by
 * pricing candidates through the exact modelled walk runQuery()
 * charges, plus the resolved host execution knobs. Four decision
 * passes, all result-preserving by construction:
 *
 *  1. Inner-to-semi join demotion — an inner join whose payload no
 *     downstream reference reads and whose equality keys cover the
 *     build table's primary key matches at most one visible build
 *     row per probe row under the MVCC snapshot, so it degenerates
 *     to a semi join (a probe-keyed selection kernel the batch
 *     engine can fuse).
 *  2. Join reorder — valid permutations (payload references must
 *     resolve to earlier positions) ranked by the modelled row flow:
 *     observed per-join pass rates from the stats cache when the
 *     plan ran before, build/probe cardinality heuristics otherwise.
 *     Filter reorder is selection commutation; results are
 *     byte-identical for every order.
 *  3. CPU-vs-PIM scan placement and probe-pass fusion — greedy
 *     demotion of PIM-eligible scan sites to the CPU gather path and
 *     the fused-probe-scan pricing alternative, each accepted only
 *     when the whole-plan priced cost strictly drops (the runtime
 *     counterpart of the paper's Eq. (3) crossover).
 *  4. Knob resolution — workers as the engine resolved them
 *     (0 = hardware threads, any other value kept); a defaulted
 *     morselRows shrinks while the probe table cannot fill two
 *     morsels, an explicit one is kept. Purely host-side: pricing
 *     and results are knob-invariant by construction.
 *
 * The chosen plan's priced cost never exceeds the hand-built plan's:
 * demotion only shrinks charges term-by-term in the same summation
 * order, placement/fusion steps are accepted only when strictly
 * cheaper, and the chosen decisions are priced over the hand-built
 * join order (pricing is order-independent), so the comparison is
 * exact — not merely within float-reassociation noise.
 *
 * After every optimized execution the batch engine's measured
 * ExecStats (probe filter pass rates, per-join in/out flows,
 * per-conjunct selectivities) feed the engine's per-plan stats
 * cache, so repeated runs re-rank join orders from observed
 * selectivities — the adaptive half of the loop.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "olap/olap_engine.hpp"
#include "olap/plan.hpp"

namespace pushtap::olap {

/**
 * The optimizer's output: the chosen physical plan (executable as-is
 * by executePlan), the resolved host knobs, and the decision record
 * surfaced through QueryReport and describePlan().
 */
struct OptimizedQuery
{
    /** Chosen physical plan: demoted joins, reordered join chain,
     *  every column reference remapped to the new join positions. */
    QueryPlan plan;

    /** Resolved host execution knobs (see optimizePlan's pass 4). */
    std::uint32_t workers = 1;
    std::uint32_t morselRows = kMorselRows;

    /** Scan sites priced on the CPU gather path instead of PIM. */
    PlacementSet cpuPlacements;
    /** Price the fused probe pass (chosen only when strictly
     *  cheaper and the plan actually fuses). */
    bool fuseProbeScans = false;

    /** joinOrder[p] = hand-built index of the join now at position
     *  p (identity when nothing moved). */
    std::vector<std::size_t> joinOrder;
    /** Per hand-built join index: 1 when demoted inner-to-semi. */
    std::vector<std::uint8_t> demoted;

    std::uint32_t joinsReordered = 0; ///< Joins not at their position.
    std::uint32_t joinsDemoted = 0;

    /** Priced (pim + cpu) cost of the hand-built plan and of the
     *  chosen decisions, over the same estimated visible rows.
     *  pricedChosenNs <= pricedHandBuiltNs always. */
    TimeNs pricedHandBuiltNs = 0.0;
    TimeNs pricedChosenNs = 0.0;

    /** True when any decision used observed stats-cache
     *  selectivities instead of cardinality heuristics. */
    bool usedObservedStats = false;
};

/**
 * The chosen decisions expressed in the hand-built join order: the
 * plan pricePlan() charges for the chosen side of the cost
 * comparison. Demotions apply (kind/payload), the join chain keeps
 * @p hand_built's order — pricing charges per join independently of
 * position, so this prices the chosen plan while keeping the exact
 * float summation order of the hand-built walk.
 */
QueryPlan pricingBasis(const QueryPlan &hand_built,
                       const OptimizedQuery &oq);

/**
 * Stable identity of join @p join_idx of @p plan: build table, join
 * kind and the equality key pairs (probe-side references resolved to
 * table.column). Invariant under join reordering, so stats-cache
 * observations survive across runs that chose different orders.
 */
std::string joinSignature(const QueryPlan &plan, std::size_t join_idx);

/**
 * EXPLAIN-style text dump of a logical plan: probe predicates,
 * subquery pre-passes, the join chain with kinds and key equalities,
 * grouping, aggregates and sort/limit. One node per line.
 */
std::string describePlan(const QueryPlan &plan);

/**
 * EXPLAIN dump of an optimizer decision: the chosen physical plan
 * followed by the decision record — join order against the
 * hand-built plan, demotions, CPU-demoted scan sites, fusion, the
 * resolved knobs and the priced chosen-vs-hand-built costs.
 */
std::string describePlan(const QueryPlan &hand_built,
                         const OptimizedQuery &oq);

} // namespace pushtap::olap
