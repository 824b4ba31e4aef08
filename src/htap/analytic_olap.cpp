#include "htap/analytic_olap.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "workload/ch_schema.hpp"

namespace pushtap::htap {

using workload::ChTable;

namespace {

/** Rebuild speedup of MI (HBM)'s dedicated accelerator [6]. */
constexpr double kAccelSpeedup = 5.0;

} // namespace

AnalyticOlapModel::AnalyticOlapModel(
    const txn::Database &db, const dram::Geometry &geom,
    const dram::TimingParams &timing, const pim::PimConfig &pim_cfg,
    const pim::OffloadOverheads &overheads)
    : db_(db), geom_(geom), timing_(geom, timing), pimCfg_(pim_cfg),
      twoPhase_(pim::CostModel(pim_cfg), overheads)
{
}

pim::TwoPhaseSchedule
AnalyticOlapModel::idealColumnScan(std::uint64_t rows,
                                   std::uint32_t width) const
{
    const Bytes total = rows * width;
    const std::uint32_t units = geom_.pimUnitCount();
    const Bytes per_unit = (total + units - 1) / units;
    return twoPhase_.schedule(pim::OpType::Filter, per_unit, width);
}

TimeNs
AnalyticOlapModel::rebuildTime(std::uint64_t versions,
                               bool accel) const
{
    if (versions == 0)
        return 0.0;
    // Average row bytes across the write-heavy tables.
    const auto &lines = db_.table(ChTable::OrderLine);
    const Bytes row_bytes = lines.schema().rowBytes();

    // CPU pushes rows + metadata over the bus...
    const Bytes transfer =
        versions * (row_bytes + mvcc::kMetadataBytes);
    TimeNs t = timing_.cpuPeakBandwidth().transferTime(transfer);
    // ...then the PIM units merge metadata and install the rows into
    // the column store (read + write inside the banks).
    const Bytes pim_moved =
        versions * (2 * row_bytes + mvcc::kMetadataBytes);
    t += timing_
             .pimAggregateBandwidth(pimCfg_.streamBandwidth)
             .transferTime(pim_moved);
    // The general-purpose units also re-execute the merge logic.
    pim::CostModel cm(pimCfg_);
    t += cm.computeTime(pim::OpType::Defragment,
                        versions * row_bytes /
                            geom_.pimUnitCount());
    return accel ? t / kAccelSpeedup : t;
}

TimeNs
AnalyticOlapModel::consistency(BaselineKind kind,
                               std::uint64_t pending_versions) const
{
    switch (kind) {
      case BaselineKind::Ideal:
        return 0.0;
      case BaselineKind::MultiInstance:
        return rebuildTime(pending_versions, false);
      case BaselineKind::MultiInstanceAccel:
        return rebuildTime(pending_versions, true);
    }
    return 0.0;
}

namespace {

const char *
kindName(BaselineKind k)
{
    switch (k) {
      case BaselineKind::Ideal: return "Ideal";
      case BaselineKind::MultiInstance: return "MI";
      case BaselineKind::MultiInstanceAccel: return "MI(accel)";
    }
    return "?";
}

} // namespace

BaselineReport
AnalyticOlapModel::runQuery(BaselineKind kind,
                            const olap::QueryPlan &plan,
                            std::uint64_t pending_versions) const
{
    olap::validatePlan(plan);

    BaselineReport rep;
    rep.name = std::string(kindName(kind)) + "/" + plan.name;

    auto rows_of = [this](ChTable t) {
        return db_.table(t).usedDataRows();
    };
    auto width_of = [this](ChTable t, const std::string &col) {
        const auto &s = db_.table(t).schema();
        return s.column(s.columnId(col)).width;
    };
    // Clean packed columns: every operator input is one ideal scan,
    // char predicates included (the column-store instance scans them
    // in PIM, unlike the single-instance engine's CPU gather).
    auto scan = [&](ChTable t, const std::string &col) {
        rep.pimNs += idealColumnScan(rows_of(t), width_of(t, col))
                         .total();
    };
    // Expression predicates charge one ideal scan per distinct
    // referenced column (the column-store instance scans Char LIKE
    // targets in PIM too, unlike the single-instance CPU gather).
    auto scan_exprs = [&](workload::ChTable table,
                          const std::vector<olap::ExprPtr> &exprs) {
        std::set<std::string> int_cols, char_cols;
        olap::collectExprColumns(exprs, int_cols, char_cols);
        for (const auto &name : int_cols)
            scan(table, name);
        for (const auto &name : char_cols)
            scan(table, name);
    };
    auto scan_input = [&](const olap::TableInput &in) {
        for (const auto &p : in.intPredicates)
            scan(in.table, p.column);
        for (const auto &p : in.charPredicates)
            scan(in.table, p.column);
        scan_exprs(in.table, in.exprPredicates);
    };

    // Scalar-subquery pre-passes: source filters, group keys,
    // aggregate inputs, and the probe-side key lookup columns.
    for (const auto &sub : plan.subqueries) {
        scan_input(sub.source);
        for (const auto &col : sub.groupBy)
            scan(sub.source.table, col);
        std::vector<olap::ExprPtr> inputs;
        for (const auto &agg : sub.aggs)
            inputs.push_back(agg.value);
        scan_exprs(sub.source.table, inputs);
        std::set<std::string> key_cols;
        for (const auto &key : sub.keys)
            key_cols.insert(key.column);
        for (const auto &name : key_cols)
            scan(plan.probe.table, name);
    }

    scan_input(plan.probe);
    const std::uint64_t probe_rows = rows_of(plan.probe.table);
    for (const auto &join : plan.joins) {
        scan_input(join.build);
        for (const auto &[build_col, ref] : join.keys) {
            scan(join.build.table, build_col);
            scan(olap::tableOf(plan, ref), ref.column);
        }
        const std::uint64_t build_rows = rows_of(join.build.table);
        pim::CostModel cm(pimCfg_);
        rep.pimNs += cm.computeTime(
            pim::OpType::Join,
            (build_rows + probe_rows) / geom_.pimUnitCount() + 1);
        rep.cpuNs += 2.0 * timing_.cpuPeakBandwidth().transferTime(
                               (build_rows + probe_rows) * 4);
    }
    for (const auto &key : plan.groupBy)
        scan(olap::tableOf(plan, key), key.column);
    for (const auto &agg : plan.aggregates) {
        if (agg.expr) {
            std::set<std::pair<workload::ChTable, std::string>>
                cols;
            olap::forEachColumnRef(
                *agg.expr,
                [&cols, &plan](const olap::ColRef &ref, bool) {
                    cols.emplace(olap::tableOf(plan, ref),
                                 ref.column);
                });
            for (const auto &[table, name] : cols)
                scan(table, name);
        } else {
            scan(olap::tableOf(plan, agg.value), agg.value.column);
        }
    }

    // CPU merge: joined plans already paid the bucket partition; a
    // grouped scan ships one 2 B group index per row; an ungrouped
    // scan merges one partial value per unit per aggregate.
    if (plan.joins.empty()) {
        if (!plan.groupBy.empty()) {
            rep.cpuNs += timing_.cpuPeakBandwidth().transferTime(
                probe_rows * 2);
        } else {
            const auto naggs = std::max<std::size_t>(
                1, plan.aggregates.size());
            rep.cpuNs += timing_.cpuPeakBandwidth().transferTime(
                static_cast<Bytes>(geom_.pimUnitCount()) * 8 *
                naggs);
        }
    }

    rep.consistencyNs = consistency(kind, pending_versions);
    return rep;
}

} // namespace pushtap::htap
