#include "olap/olap_engine.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "format/bandwidth.hpp"
#include "workload/ch_schema.hpp"

namespace pushtap::olap {

using workload::ChTable;

OlapConfig
OlapConfig::pushtapDimm()
{
    OlapConfig cfg;
    cfg.overheads = memctrl::pushtapArchOverheads(cfg.geom,
                                                  cfg.timing);
    return cfg;
}

OlapConfig
OlapConfig::pushtapHbm()
{
    OlapConfig cfg;
    cfg.geom = dram::Geometry::hbmDefault();
    cfg.timing = dram::TimingParams::hbm3();
    cfg.pimConfig = pim::PimConfig::hbmVariant();
    cfg.overheads = memctrl::pushtapArchOverheads(cfg.geom,
                                                  cfg.timing);
    return cfg;
}

OlapEngine::OlapEngine(txn::Database &db, const OlapConfig &cfg)
    : db_(db), cfg_(cfg), timing_(cfg.geom, cfg.timing),
      twoPhase_(pim::CostModel(cfg.pimConfig), cfg.overheads),
      snapshotters_(workload::kChTableCount),
      defragmenter_(
          timing_.cpuPeakBandwidth(),
          timing_.pimAggregateBandwidth(cfg.pimConfig.streamBandwidth),
          db.config().devices)
{
    // workers = 0 resolves to the hardware thread count here, once.
    if (cfg_.workers == 0)
        cfg_.workers = WorkerPool::hardwareWorkers();
    // The pool runs the morsels of every query phase (subquery
    // pre-passes, join builds, the probe) plus the per-table
    // snapshot/defrag passes.
    if (cfg_.workers > 1)
        pool_ = std::make_unique<WorkerPool>(cfg_.workers);
}

TimeNs
OlapEngine::busTime(Bytes bytes) const
{
    return timing_.cpuPeakBandwidth().transferTime(bytes);
}

std::uint64_t
OlapEngine::scannedDeltaRows(const txn::TableRuntime &tbl) const
{
    // Old versions are skipped logically but still streamed: with
    // sub-granule row widths skipping discrete bytes saves nothing
    // (section 7.4), so the PIM units walk every allocated delta
    // block.
    const std::uint64_t used = tbl.versions().deltaUsed();
    if (used == 0)
        return 0;
    const std::uint32_t block = db_.config().blockRows;
    // Rotation classes allocate blocks independently; round the used
    // rows up to whole blocks per class.
    const std::uint32_t classes = db_.config().devices;
    const std::uint64_t per_class = (used + classes - 1) / classes;
    const std::uint64_t blocks_per_class =
        (per_class + block - 1) / block;
    return blocks_per_class * classes * block;
}

ScanCost
OlapEngine::scanCostForWidth(const txn::TableRuntime &tbl,
                             std::uint32_t width,
                             pim::OpType op) const
{
    ScanCost cost;
    cost.totalBytes =
        (tbl.usedDataRows() + scannedDeltaRows(tbl)) * width;
    cost.activeUnits =
        cfg_.blockCirculant
            ? cfg_.geom.pimUnitCount()
            : cfg_.geom.pimUnitCount() / db_.config().devices;
    cost.bytesPerUnit =
        (cost.totalBytes + cost.activeUnits - 1) / cost.activeUnits;
    cost.schedule = twoPhase_.schedule(op, cost.bytesPerUnit, width);
    return cost;
}

void
OlapEngine::priceScan(const txn::TableRuntime &tbl,
                      std::uint32_t width, pim::OpType op,
                      QueryReport &rep) const
{
    // One serial scan spread over every PIM unit (section 6.2);
    // block-circulant placement provides the parallelism.
    const auto cost = scanCostForWidth(tbl, width, op);
    rep.pimNs += cost.schedule.total();
    rep.cpuBlockedNs += cost.schedule.cpuBlockedTime;
}

ScanCost
OlapEngine::columnScanCost(const txn::TableRuntime &tbl, ColumnId c,
                           pim::OpType op) const
{
    const auto &pl = tbl.layout().keyPlacement(c);
    return scanCostForWidth(
        tbl, tbl.layout().parts()[pl.part].rowWidth, op);
}

TimeNs
OlapEngine::prepareSnapshot(Timestamp ts)
{
    // Tables are fully independent (per-table snapshotter, version
    // manager and bitmaps), so the pass fans out per table over the
    // pool. The modelled totals fold serially in table order below —
    // float addition order fixed — so the returned charge is
    // bit-identical for any worker count.
    std::vector<mvcc::SnapshotStats> stats(workload::kChTableCount);
    runTasks(pool_.get(), workload::kChTableCount,
             [&](std::uint32_t, std::size_t i) {
                 auto &tbl = db_.table(static_cast<ChTable>(i));
                 stats[i] = snapshotters_[i].snapshot(tbl.store(),
                                                      tbl.versions(), ts);
             });
    TimeNs total = cfg_.snapshotFixedNs;
    mvcc::SnapshotStats merged;
    for (const auto &st : stats) {
        total += busTime(st.metadataBytesRead) +
                 busTime(st.bitmapBytesWritten);
        merged.versionsScanned += st.versionsScanned;
        merged.versionsSkipped += st.versionsSkipped;
        merged.bitsFlipped += st.bitsFlipped;
        merged.metadataBytesRead += st.metadataBytesRead;
        merged.bitmapBytesWritten += st.bitmapBytesWritten;
    }
    lastSnapshot_ = merged;
    pendingConsistency_ += total;
    return total;
}

TimeNs
OlapEngine::runDefragmentation(mvcc::DefragStrategy strategy)
{
    // Per-table parallel like prepareSnapshot: Defragmenter::run is
    // stateless apart from its construction-time bandwidth config,
    // and absorbInserts/rewind touch only the task's own table.
    // Epoch-guarded reclamation inside run() is unchanged. The
    // merged stats fold serially in table order below.
    std::vector<mvcc::DefragStats> stats(workload::kChTableCount);
    runTasks(pool_.get(), workload::kChTableCount,
             [&](std::uint32_t, std::size_t i) {
                 auto &tbl = db_.table(static_cast<ChTable>(i));
                 stats[i] = defragmenter_.run(tbl.store(), tbl.versions(),
                                              strategy);
                 // Inserted rows are now primary data-region rows.
                 tbl.absorbInserts();
                 snapshotters_[i].rewind();
             });
    TimeNs total = cfg_.defragFixedNs;
    mvcc::DefragStats merged;
    for (const auto &st : stats) {
        total += st.timeNs;
        merged.deltaRows += st.deltaRows;
        merged.rowsCopied += st.rowsCopied;
        merged.chainSteps += st.chainSteps;
        merged.bytesMoved += st.bytesMoved;
        merged.timeNs += st.timeNs;
        merged.breakdown.merge(st.breakdown);
    }
    merged.chosen = strategy;
    lastDefrag_ = merged;
    // Defragmentation pauses OLTP (section 5.3); it is charged to the
    // transaction side (Fig. 11(a)), not to the next query, which
    // only pays its snapshot.
    return total;
}

TimeNs
OlapEngine::takeConsistency()
{
    const TimeNs t = pendingConsistency_;
    pendingConsistency_ = 0.0;
    return t;
}

void
OlapEngine::priceCpuGather(const txn::TableRuntime &tbl,
                           const std::string &column,
                           QueryReport &rep) const
{
    // Dictionary-encoded Char columns are filtered over their packed
    // integer codes: the predicate pre-evaluates once against the
    // dictionary and the scan streams code-width bytes per row, so
    // the charge is a PIM scan at the code width instead of the raw
    // fragment gather.
    const ColumnId cid = tbl.schema().columnId(column);
    if (const auto *dict = tbl.store().dictionary(cid)) {
        priceScan(tbl, dict->codeWidthBytes(), pim::OpType::Filter,
                  rep);
        return;
    }
    // Normal columns (no query in the key-selection set scans them by
    // themselves) are evaluated by the CPU across the devices "with a
    // performance loss" (section 4.1.2).
    const auto access = format::BandwidthModel(
                            db_.config().devices,
                            cfg_.geom.interleaveGranularity,
                            cfg_.geom.stripedLines)
                            .columnSetAccess(
                                tbl.layout(),
                                {tbl.schema().columnId(column)});
    rep.cpuNs += busTime(static_cast<Bytes>(
        access.fetchedBytes *
        static_cast<double>(tbl.usedDataRows())));
}

void
OlapEngine::priceColumnRead(const txn::TableRuntime &tbl,
                            const std::string &column, pim::OpType op,
                            QueryReport &rep) const
{
    const ColumnId c = tbl.schema().columnId(column);
    const auto &col = tbl.schema().column(c);
    if (col.type == format::ColType::Int &&
        tbl.layout().singlePlacement(c) != nullptr) {
        const auto &pl = tbl.layout().keyPlacement(c);
        priceScan(tbl, tbl.layout().parts()[pl.part].rowWidth, op,
                  rep);
        return;
    }
    priceCpuGather(tbl, column, rep);
}

void
OlapEngine::priceMerge(const QueryPlan &plan, std::uint64_t visible,
                       QueryReport &rep) const
{
    // Joined plans already paid the bucket partition/shuffle, which
    // co-locates group fragments; nothing further to merge.
    if (!plan.joins.empty())
        return;
    if (!plan.groupBy.empty()) {
        // CPU transfers the group indices to the banks holding the
        // aggregated columns (2 B per visible row), then merges the
        // per-unit partial sums: 16 group slots per PIM unit, Q1's
        // fixed ol_number domain.
        constexpr Bytes kGroupSlots = 16;
        rep.cpuNs += busTime(visible * 2);
        rep.cpuNs += busTime(static_cast<Bytes>(
                                 cfg_.geom.pimUnitCount()) *
                             kGroupSlots * 8);
        return;
    }
    // CPU merges one partial value per unit per aggregate.
    const auto naggs =
        std::max<std::size_t>(1, plan.aggregates.size());
    rep.cpuNs += busTime(static_cast<Bytes>(
                             cfg_.geom.pimUnitCount()) *
                         8 * naggs);
}

QueryReport
OlapEngine::pricePlan(const QueryPlan &plan,
                      std::uint64_t visible_rows) const
{
    // The hand-built plan is priced per operator (section 6.2).
    QueryReport rep;
    rep.name = plan.name;
    const auto &probe_tbl = db_.table(plan.probe.table);
    const std::uint64_t probe_rows =
        probe_tbl.usedDataRows() + probe_tbl.versions().deltaUsed();
    const pim::CostModel cm(cfg_.pimConfig);
    for (const auto &step : planSteps(plan)) {
        const auto &tbl = db_.table(step.table);
        if (step.op != pim::OpType::Join) {
            priceColumnRead(tbl, step.column, step.op, rep);
            continue;
        }
        // One hash-join leg after its key scans: the CPU fetches the
        // hashes, partitions buckets and pushes them back (4 B per
        // value each way), then the PIM units probe within buckets.
        const std::uint64_t rows = tbl.usedDataRows() + probe_rows;
        rep.cpuNs += 2.0 * busTime(rows * 4);
        rep.pimNs += cm.computeTime(
            pim::OpType::Join, rows / cfg_.geom.pimUnitCount() + 1);
    }
    priceMerge(plan, visible_rows, rep);
    return rep;
}

QueryReport
OlapEngine::runQuery(const QueryPlan &plan, QueryResult *result)
{
    const TimeNs consistency = takeConsistency();

    // executePlan validates the plan before the pricing walk. The
    // engine's worker pool drives the functional execution at the
    // default morsel size; results are byte-identical to the
    // single-threaded defaults by construction.
    ExecOptions exec_opts;
    exec_opts.workers = cfg_.workers;
    exec_opts.pool = pool_.get();
    auto exec = executePlan(db_, plan, exec_opts);

    QueryReport rep = pricePlan(plan, exec.rowsVisible);
    rep.consistencyNs = consistency;
    rep.rowsVisible = exec.rowsVisible;
    if (result)
        *result = std::move(exec.result);
    return rep;
}

} // namespace pushtap::olap
