#include "olap/optimizer.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "workload/ch_schema.hpp"

namespace pushtap::olap {

using workload::ChTable;

namespace {

const char *
kindName(JoinKind k)
{
    switch (k) {
      case JoinKind::Inner: return "inner";
      case JoinKind::Semi: return "semi";
      case JoinKind::Anti: return "anti";
    }
    return "?";
}

const char *
aggName(AggKind k)
{
    switch (k) {
      case AggKind::Sum: return "sum";
      case AggKind::Min: return "min";
      case AggKind::Max: return "max";
    }
    return "?";
}

std::string
boundStr(std::int64_t v)
{
    if (v == std::numeric_limits<std::int64_t>::min())
        return "-inf";
    if (v == std::numeric_limits<std::int64_t>::max())
        return "+inf";
    return std::to_string(v);
}

std::string
refStr(const ColRef &ref)
{
    if (ref.side == ColRef::kProbe)
        return "probe." + ref.column;
    return "j" + std::to_string(ref.side) + "." + ref.column;
}

const char *
opSymbol(ExprOp op)
{
    switch (op) {
      case ExprOp::Add: return "+";
      case ExprOp::Sub: return "-";
      case ExprOp::Mul: return "*";
      case ExprOp::Div: return "/";
      case ExprOp::Eq: return "==";
      case ExprOp::Ne: return "!=";
      case ExprOp::Lt: return "<";
      case ExprOp::Le: return "<=";
      case ExprOp::Gt: return ">";
      case ExprOp::Ge: return ">=";
      case ExprOp::And: return "&&";
      case ExprOp::Or: return "||";
      default: return "?";
    }
}

std::string
exprStr(const Expr &e)
{
    switch (e.op) {
      case ExprOp::IntLit:
        return std::to_string(e.lit);
      case ExprOp::Column:
        return e.col.side == ColRef::kProbe ? e.col.column
                                            : refStr(e.col);
      case ExprOp::Like:
        return (e.col.side == ColRef::kProbe ? e.col.column
                                             : refStr(e.col)) +
               " like \"" + e.pattern + "\"";
      case ExprOp::SubqueryRef:
        return "s" + std::to_string(e.subquery) + ".agg" +
               std::to_string(e.aggIndex);
      case ExprOp::Not:
        return "!(" + exprStr(*e.kids[0]) + ")";
      case ExprOp::CaseWhen:
        return "case(" + exprStr(*e.kids[0]) + ", " +
               exprStr(*e.kids[1]) + ", " + exprStr(*e.kids[2]) +
               ")";
      default:
        return "(" + exprStr(*e.kids[0]) + " " + opSymbol(e.op) +
               " " + exprStr(*e.kids[1]) + ")";
    }
}

void
dumpInput(std::ostringstream &os, const TableInput &in,
          const char *indent)
{
    for (const auto &p : in.intPredicates)
        os << indent << "where " << p.column << " in ["
           << boundStr(p.lo) << ", " << boundStr(p.hi) << "]\n";
    for (const auto &p : in.charPredicates)
        os << indent << "where " << (p.negate ? "!" : "")
           << "prefix(" << p.column << ", \"" << p.prefix << "\")\n";
    for (const auto &e : in.exprPredicates)
        if (e)
            os << indent << "where " << exprStr(*e) << "\n";
}

std::string
nsStr(TimeNs ns)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.1f", ns);
    return buf;
}

/**
 * Clone @p e with every payload-side column reference remapped
 * through @p new_side (new_side[old join index] = new join index).
 * Returns @p e itself when no reference moves — plans share
 * expression subtrees freely, so untouched trees stay shared.
 */
ExprPtr
remapExprSides(const ExprPtr &e, const std::vector<int> &new_side)
{
    if (!e)
        return e;
    bool moves = false;
    forEachColumnRef(*e, [&](const ColRef &ref, bool) {
        if (ref.side >= 0 &&
            new_side[static_cast<std::size_t>(ref.side)] != ref.side)
            moves = true;
    });
    if (!moves)
        return e;
    auto clone = [&new_side](auto &&self,
                             const Expr &src) -> std::shared_ptr<Expr> {
        auto out = std::make_shared<Expr>(src);
        if ((out->op == ExprOp::Column || out->op == ExprOp::Like) &&
            out->col.side >= 0)
            out->col.side =
                new_side[static_cast<std::size_t>(out->col.side)];
        for (auto &kid : out->kids)
            if (kid)
                kid = self(self, *kid);
        return out;
    };
    return clone(clone, *e);
}

std::string
summaryLine(const OptimizedQuery &oq)
{
    std::string s = "order=";
    if (oq.joinsReordered == 0) {
        s += "hand";
    } else {
        s += "[";
        for (std::size_t p = 0; p < oq.joinOrder.size(); ++p) {
            if (p)
                s += ",";
            s += std::to_string(oq.joinOrder[p]);
        }
        s += "]";
    }
    s += " demoted=" + std::to_string(oq.joinsDemoted);
    s += " cpuScans=" + std::to_string(oq.cpuPlacements.size());
    s += oq.fuseProbeScans ? " fused" : " unfused";
    s += " workers=" + std::to_string(oq.workers);
    s += " morsel=" + std::to_string(oq.morselRows);
    return s;
}

} // namespace

QueryPlan
pricingBasis(const QueryPlan &hand_built, const OptimizedQuery &oq)
{
    QueryPlan basis = hand_built;
    for (std::size_t k = 0; k < basis.joins.size(); ++k) {
        if (!oq.demoted[k])
            continue;
        basis.joins[k].kind = JoinKind::Semi;
        basis.joins[k].payload.clear();
    }
    return basis;
}

std::string
joinSignature(const QueryPlan &plan, std::size_t join_idx)
{
    const auto &join = plan.joins.at(join_idx);
    std::string sig = workload::chTableName(join.build.table);
    sig += "|";
    sig += kindName(join.kind);
    for (const auto &[build_col, ref] : join.keys) {
        sig += "|";
        sig += build_col;
        sig += "=";
        sig += workload::chTableName(tableOf(plan, ref));
        sig += ".";
        sig += ref.column;
    }
    return sig;
}

std::string
describePlan(const QueryPlan &plan)
{
    std::ostringstream os;
    os << "plan " << plan.name << "\n";
    os << "  probe " << workload::chTableName(plan.probe.table)
       << "\n";
    dumpInput(os, plan.probe, "    ");
    for (std::size_t s = 0; s < plan.subqueries.size(); ++s) {
        const auto &sub = plan.subqueries[s];
        os << "  subquery s" << s << ": "
           << workload::chTableName(sub.source.table);
        if (!sub.groupBy.empty()) {
            os << " group by (";
            for (std::size_t i = 0; i < sub.groupBy.size(); ++i)
                os << (i ? ", " : "") << sub.groupBy[i];
            os << ")";
        }
        os << "\n";
        dumpInput(os, sub.source, "    ");
        for (const auto &agg : sub.aggs)
            os << "    agg " << aggName(agg.kind) << "("
               << exprStr(*agg.value) << ")\n";
        os << "    keyed on (";
        for (std::size_t i = 0; i < sub.keys.size(); ++i)
            os << (i ? ", " : "") << refStr(sub.keys[i]);
        os << ")\n";
    }
    for (std::size_t k = 0; k < plan.joins.size(); ++k) {
        const auto &join = plan.joins[k];
        os << "  join j" << k << ": " << kindName(join.kind) << " "
           << workload::chTableName(join.build.table) << " on ";
        for (std::size_t i = 0; i < join.keys.size(); ++i) {
            const auto &[build_col, ref] = join.keys[i];
            os << (i ? ", " : "") << build_col << " == "
               << refStr(ref);
        }
        os << "\n";
        dumpInput(os, join.build, "    ");
        if (!join.payload.empty()) {
            os << "    payload (";
            for (std::size_t i = 0; i < join.payload.size(); ++i)
                os << (i ? ", " : "") << join.payload[i];
            os << ")\n";
        }
    }
    if (!plan.groupBy.empty()) {
        os << "  group by ";
        for (std::size_t i = 0; i < plan.groupBy.size(); ++i)
            os << (i ? ", " : "") << refStr(plan.groupBy[i]);
        os << "\n";
    }
    for (const auto &agg : plan.aggregates) {
        os << "  agg " << aggName(agg.kind) << "(";
        if (agg.expr)
            os << exprStr(*agg.expr);
        else
            os << refStr(agg.value);
        os << ")\n";
    }
    if (!plan.orderBy.empty()) {
        os << "  order by ";
        for (std::size_t i = 0; i < plan.orderBy.size(); ++i) {
            const auto &sk = plan.orderBy[i];
            os << (i ? ", " : "");
            switch (sk.target) {
              case SortKey::Target::GroupKey:
                os << "key" << sk.index;
                break;
              case SortKey::Target::Aggregate:
                os << "agg" << sk.index;
                break;
              case SortKey::Target::Count:
                os << "count";
                break;
            }
            os << (sk.descending ? " desc" : " asc");
        }
        os << "\n";
    }
    if (plan.limit != 0)
        os << "  limit " << plan.limit << "\n";
    return os.str();
}

std::string
describePlan(const QueryPlan &hand_built, const OptimizedQuery &oq)
{
    std::ostringstream os;
    os << describePlan(oq.plan);
    os << "optimizer\n";
    if (oq.joinsReordered == 0) {
        os << "  join order: hand-built\n";
    } else {
        os << "  join order:";
        for (std::size_t p = 0; p < oq.joinOrder.size(); ++p)
            os << " j" << p << "<-hand j" << oq.joinOrder[p];
        os << "\n";
    }
    if (oq.joinsDemoted > 0) {
        os << "  demoted inner->semi: hand";
        for (std::size_t k = 0; k < oq.demoted.size(); ++k)
            if (oq.demoted[k])
                os << " j" << k;
        os << " (payload unread, keys cover the primary key)\n";
    }
    if (!oq.cpuPlacements.empty()) {
        os << "  cpu gather scans:";
        for (const auto &site : oq.cpuPlacements)
            os << " " << site.table << "." << site.column;
        os << "\n";
    }
    os << "  probe pass priced "
       << (oq.fuseProbeScans ? "fused" : "per-operator") << "\n";
    os << "  knobs: workers=" << oq.workers
       << " morselRows=" << oq.morselRows << "\n";
    os << "  selectivities: "
       << (oq.usedObservedStats ? "observed (stats cache)"
                                : "cardinality heuristics")
       << "\n";
    os << "  priced: chosen=" << nsStr(oq.pricedChosenNs)
       << " ns, hand-built=" << nsStr(oq.pricedHandBuiltNs)
       << " ns (" << hand_built.name << ")\n";
    return os.str();
}

OptimizedQuery
OlapEngine::optimizePlan(const QueryPlan &plan) const
{
    validatePlan(plan);

    OptimizedQuery oq;
    oq.plan = plan;
    const std::size_t njoins = plan.joins.size();
    oq.demoted.assign(njoins, 0);
    oq.joinOrder.resize(njoins);
    std::iota(oq.joinOrder.begin(), oq.joinOrder.end(),
              std::size_t{0});

    const auto &probe_tbl = db_.table(plan.probe.table);
    const std::uint64_t probe_rows =
        std::max<std::uint64_t>(1, scannedDataRows(probe_tbl) +
                                       probe_tbl.versions()
                                           .deltaUsed());

    // ---- Pass 1: inner-to-semi join demotion -------------------
    // Valid when (a) no downstream reference reads the payload and
    // (b) the equality keys cover the build table's primary key: the
    // MVCC snapshot exposes one visible version per logical row, so
    // at most one build row matches any probe row and the inner
    // expansion is exactly a semi filter.
    std::vector<char> payload_read(njoins, 0);
    auto mark = [&payload_read](const ColRef &ref) {
        if (ref.side >= 0)
            payload_read[static_cast<std::size_t>(ref.side)] = 1;
    };
    for (const auto &join : plan.joins)
        for (const auto &[build_col, ref] : join.keys)
            mark(ref);
    for (const auto &key : plan.groupBy)
        mark(key);
    for (const auto &agg : plan.aggregates) {
        if (agg.expr)
            forEachColumnRef(*agg.expr,
                             [&mark](const ColRef &ref, bool) {
                                 mark(ref);
                             });
        else
            mark(agg.value);
    }
    for (std::size_t k = 0; k < njoins; ++k) {
        auto &join = oq.plan.joins[k];
        if (join.kind != JoinKind::Inner || payload_read[k])
            continue;
        const auto pk = workload::chPrimaryKey(join.build.table);
        if (pk.empty())
            continue;
        const bool covered = std::all_of(
            pk.begin(), pk.end(), [&join](const std::string &col) {
                return std::any_of(
                    join.keys.begin(), join.keys.end(),
                    [&col](const auto &key) {
                        return key.first == col;
                    });
            });
        if (!covered)
            continue;
        join.kind = JoinKind::Semi;
        join.payload.clear();
        oq.demoted[k] = 1;
        ++oq.joinsDemoted;
    }

    const PlanStats *stats = planStats(plan.name);

    // ---- Pass 2: join reorder ----------------------------------
    // Rank valid permutations by modelled row flow (sum of rows
    // entering each join). Selectivities come from the stats cache
    // when this plan ran optimized before (matched by join
    // signature, so they survive past reorders), from build/probe
    // cardinality heuristics otherwise. A permutation is valid when
    // every payload reference in a join's keys resolves to an
    // earlier position — filter-join reordering is selection
    // commutation and inner reordering Cartesian commutation, so
    // results are byte-identical for every valid order.
    if (njoins >= 2 && njoins <= 5) {
        std::vector<double> sel(njoins, 1.0);
        for (std::size_t k = 0; k < njoins; ++k) {
            const auto &join = oq.plan.joins[k];
            bool observed = false;
            if (stats != nullptr) {
                const auto it =
                    stats->joins.find(joinSignature(oq.plan, k));
                if (it != stats->joins.end() && it->second.in > 0) {
                    sel[k] =
                        static_cast<double>(it->second.out) /
                        static_cast<double>(it->second.in);
                    observed = true;
                    oq.usedObservedStats = true;
                }
            }
            if (!observed) {
                const double ratio =
                    static_cast<double>(
                        db_.table(join.build.table).usedDataRows()) /
                    static_cast<double>(probe_rows);
                switch (join.kind) {
                  case JoinKind::Semi:
                    sel[k] = std::min(1.0, ratio);
                    break;
                  case JoinKind::Anti:
                    sel[k] = std::clamp(1.0 - ratio, 0.0, 1.0);
                    break;
                  case JoinKind::Inner:
                    sel[k] = 1.0;
                    break;
                }
            }
        }
        const double rows0 =
            stats != nullptr && stats->runs > 0
                ? static_cast<double>(stats->probeFiltered)
                : static_cast<double>(probe_rows);
        std::vector<std::vector<std::size_t>> deps(njoins);
        for (std::size_t k = 0; k < njoins; ++k)
            for (const auto &[build_col, ref] :
                 oq.plan.joins[k].keys)
                if (ref.side >= 0)
                    deps[k].push_back(
                        static_cast<std::size_t>(ref.side));

        std::vector<std::size_t> identity = oq.joinOrder;
        std::vector<std::size_t> best = identity;
        auto flowCost = [&](const std::vector<std::size_t> &order) {
            double rows = rows0, cost = 0.0;
            for (const std::size_t k : order) {
                cost += rows;
                rows *= sel[k];
            }
            return cost;
        };
        double best_cost = flowCost(identity);
        std::vector<std::size_t> pos(njoins);
        std::vector<std::size_t> perm = identity;
        do {
            for (std::size_t p = 0; p < njoins; ++p)
                pos[perm[p]] = p;
            bool ok = true;
            for (std::size_t k = 0; k < njoins && ok; ++k)
                for (const std::size_t d : deps[k])
                    if (pos[d] >= pos[k]) {
                        ok = false;
                        break;
                    }
            if (!ok)
                continue;
            const double c = flowCost(perm);
            // Strictly better only: ties keep the hand-built order
            // (perm enumeration starts at the identity), so a plan
            // with indistinguishable orders is left untouched.
            if (c < best_cost - 1e-9) {
                best_cost = c;
                best = perm;
            }
        } while (
            std::next_permutation(perm.begin(), perm.end()));

        if (best != identity) {
            std::vector<int> new_side(njoins);
            for (std::size_t p = 0; p < njoins; ++p)
                new_side[best[p]] = static_cast<int>(p);
            std::vector<JoinSpec> reordered;
            reordered.reserve(njoins);
            for (std::size_t p = 0; p < njoins; ++p)
                reordered.push_back(
                    std::move(oq.plan.joins[best[p]]));
            for (auto &join : reordered)
                for (auto &[build_col, ref] : join.keys)
                    if (ref.side >= 0)
                        ref.side = new_side[static_cast<std::size_t>(
                            ref.side)];
            oq.plan.joins = std::move(reordered);
            for (auto &key : oq.plan.groupBy)
                if (key.side >= 0)
                    key.side = new_side[static_cast<std::size_t>(
                        key.side)];
            for (auto &agg : oq.plan.aggregates) {
                if (agg.expr)
                    agg.expr = remapExprSides(agg.expr, new_side);
                else if (agg.value.side >= 0)
                    agg.value.side =
                        new_side[static_cast<std::size_t>(
                            agg.value.side)];
            }
            oq.joinOrder = best;
            for (std::size_t p = 0; p < njoins; ++p)
                if (best[p] != p)
                    ++oq.joinsReordered;
        }
    }

    // ---- Pass 3: scan placement and probe-pass fusion ----------
    // Greedy whole-plan pricing: demote one PIM-eligible scan site
    // at a time to the CPU gather path, keeping the demotion only
    // when the priced total strictly drops — the runtime Eq. (3)
    // crossover decided against the actual ScanCost schedules, not
    // a closed form. The fused-probe-pass pricing alternative runs
    // its own greedy pass and wins only when strictly cheaper. The
    // decisions are priced over the hand-built join order (pricing
    // charges per join independently of position), which keeps the
    // chosen <= hand-built comparison exact under float summation.
    const QueryPlan basis = pricingBasis(plan, oq);
    auto priceChoice = [&](bool fuse, const PlacementSet &placements) {
        const QueryReport r =
            pricePlan(basis, fuse, &placements, probe_rows);
        return r.pimNs + r.cpuNs;
    };
    std::vector<ScanSite> candidates;
    for (const auto &[table, column] : touchedColumns(basis)) {
        const auto &tbl = db_.table(table);
        const ColumnId c = tbl.schema().columnId(column);
        if (tbl.schema().column(c).type == format::ColType::Int &&
            tbl.layout().singlePlacement(c) != nullptr)
            candidates.push_back(
                ScanSite{tbl.schema().name(), column});
    }
    auto greedyPlacements = [&](bool fuse) {
        PlacementSet set;
        double cost = priceChoice(fuse, set);
        for (const auto &site : candidates) {
            PlacementSet trial = set;
            trial.insert(site);
            const double c = priceChoice(fuse, trial);
            if (c < cost) {
                set = std::move(trial);
                cost = c;
            }
        }
        return std::make_pair(std::move(set), cost);
    };
    auto [unfused_set, unfused_cost] = greedyPlacements(false);
    oq.cpuPlacements = std::move(unfused_set);
    oq.pricedChosenNs = unfused_cost;
    if (planFusesProbePass(basis) &&
        !fusedProbeColumns(basis).empty()) {
        auto [fused_set, fused_cost] = greedyPlacements(true);
        if (fused_cost < unfused_cost) {
            oq.fuseProbeScans = true;
            oq.cpuPlacements = std::move(fused_set);
            oq.pricedChosenNs = fused_cost;
        }
    }
    // The hand-built plan is priced per operator (section 6.2).
    const QueryReport hand =
        pricePlan(plan, /*fuse_probe_scans=*/false, nullptr, probe_rows);
    oq.pricedHandBuiltNs = hand.pimNs + hand.cpuNs;

    // ---- Pass 4: host knob resolution --------------------------
    // Purely host-side: results are invariant for every workers x
    // morselRows combination (commutative merges, total
    // materialization order), so tuning cannot perturb either answers
    // or the modelled report. Workers stay as the engine constructor
    // resolved them (0 = hardware, any other value kept).
    oq.workers = cfg_.workers;
    std::uint32_t morsel = cfg_.morselRows;
    if (morselAuto_) {
        // Shrink a defaulted morsel (never an explicit one) while the
        // probe cannot fill two morsels — tiny tables then still
        // split into more than one morsel.
        while (morsel > 64 &&
               static_cast<std::uint64_t>(morsel) * 2ull > probe_rows)
            morsel /= 2;
    }
    oq.morselRows = morsel;

    return oq;
}

QueryReport
OlapEngine::runQueryOptimized(const QueryPlan &plan,
                              QueryResult *result,
                              PlanExecution *exec_out)
{
    OptimizedQuery oq = optimizePlan(plan);

    QueryReport rep;
    rep.name = plan.name;
    rep.consistencyNs = takeConsistency();

    ExecOptions opts;
    opts.workers = oq.workers;
    opts.morselRows = oq.morselRows;
    // Group-accumulator capture for the result cache. The optimizer
    // only applies result-preserving transforms, so the accumulators
    // of the chosen plan equal the hand-built plan's and can seed
    // later delta-incremental runs of either.
    opts.captureGroups = exec_out != nullptr;
    opts.pool = pool_.get();
    auto exec = executePlan(db_, oq.plan, opts);
    rep.rowsVisible = exec.rowsVisible;
    rep.fusedScanColumns = exec.fusedScanColumns;

    // Close the loop: fold the measured selectivities into the
    // per-plan stats cache the next optimizePlan() reads. Joins are
    // keyed by signature, so the observation survives reordering.
    auto &ps = statsCache_[plan.name];
    ++ps.runs;
    ps.probeVisible = exec.stats.probeVisible;
    ps.probeFiltered = exec.stats.probeFiltered;
    for (std::size_t k = 0; k < oq.plan.joins.size(); ++k) {
        auto &jo = ps.joins[joinSignature(oq.plan, k)];
        jo.in = exec.stats.joins[k].in;
        jo.out = exec.stats.joins[k].out;
    }
    ps.conjuncts = exec.stats.conjuncts;

    // Price the chosen decisions in the hand-built summation order
    // (pricing charges per join independently of position) so the
    // chosen <= hand-built guarantee is exact, and the hand-built
    // plan exactly as plain runQuery would have priced it.
    const QueryPlan basis = pricingBasis(plan, oq);
    const bool chosen_fuse =
        oq.fuseProbeScans && exec.fusedScanColumns > 0;
    QueryReport chosen = pricePlan(basis, chosen_fuse,
                                   &oq.cpuPlacements,
                                   exec.rowsVisible);
    const QueryReport hand = pricePlan(plan, /*fuse_probe_scans=*/false,
                                       nullptr, exec.rowsVisible);

    rep.pimNs = chosen.pimNs;
    rep.cpuNs = chosen.cpuNs;
    rep.cpuBlockedNs = chosen.cpuBlockedNs;

    rep.optimized = true;
    rep.pricedChosenNs = chosen.pimNs + chosen.cpuNs;
    rep.pricedHandBuiltNs = hand.pimNs + hand.cpuNs;
    rep.execWorkers = oq.workers;
    rep.execMorselRows = oq.morselRows;
    rep.cpuDemotedScans =
        static_cast<std::uint32_t>(oq.cpuPlacements.size());
    rep.joinsReordered = oq.joinsReordered;
    rep.joinsDemoted = oq.joinsDemoted;
    rep.planSummary = summaryLine(oq);

    if (result)
        *result = exec_out ? exec.result : std::move(exec.result);
    if (exec_out)
        *exec_out = std::move(exec);
    return rep;
}

} // namespace pushtap::olap
