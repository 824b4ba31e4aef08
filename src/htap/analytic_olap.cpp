#include "htap/analytic_olap.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>

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

olap::QueryReport
AnalyticOlapModel::runQuery(BaselineKind kind,
                            const olap::QueryPlan &plan,
                            std::uint64_t pending_versions) const
{
    olap::validatePlan(plan);

    olap::QueryReport rep;
    rep.name = std::string(kindName(kind)) + "/" + plan.name;

    auto rows_of = [this](ChTable t) {
        return db_.table(t).usedDataRows();
    };
    const std::uint64_t probe_rows = rows_of(plan.probe.table);
    const pim::CostModel cm(pimCfg_);
    for (const auto &step : olap::planSteps(plan)) {
        if (step.op != pim::OpType::Join) {
            // Clean packed columns: every scan step is one ideal
            // scan, Char columns included (the column-store instance
            // scans them in PIM, unlike the single-instance engine's
            // CPU gather).
            const auto &s = db_.table(step.table).schema();
            rep.pimNs += idealColumnScan(
                             rows_of(step.table),
                             s.column(s.columnId(step.column)).width)
                             .total();
            continue;
        }
        const std::uint64_t rows = rows_of(step.table) + probe_rows;
        rep.pimNs += cm.computeTime(pim::OpType::Join,
                                    rows / geom_.pimUnitCount() + 1);
        rep.cpuNs +=
            2.0 * timing_.cpuPeakBandwidth().transferTime(rows * 4);
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
