#include "olap/olap_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "format/bandwidth.hpp"
#include "olap/optimizer.hpp"
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
    // Every host knob resolves here, once: kMorselRowsAuto to
    // kMorselRows and workers = 0 to the hardware thread count. The
    // optimizer may only retune a defaulted morsel size — explicit
    // settings stay authoritative.
    morselAuto_ = cfg_.morselRows == OlapConfig::kMorselRowsAuto;
    if (morselAuto_)
        cfg_.morselRows = kMorselRows;
    if (cfg_.workers == 0)
        cfg_.workers = WorkerPool::hardwareWorkers();
    if ((cfg_.morselRows & (cfg_.morselRows - 1)) != 0)
        fatal("OlapConfig: morselRows must be a power of two "
              "(got {})",
              cfg_.morselRows);
    // The pool runs the scan runs of every query phase (subquery
    // pre-passes, join builds, the probe) plus the per-table
    // snapshot/defrag passes.
    if (cfg_.workers > 1)
        pool_ = std::make_unique<WorkerPool>(cfg_.workers);
    if (cfg_.resultCache)
        cache_ = std::make_unique<ResultCache>();
    if (const char *f = std::getenv("PUSHTAP_OLAP_STATS_FILE"))
        statsFile_ = f;
    loadStatsFile();
}

OlapEngine::~OlapEngine()
{
    saveStatsFile();
}

void
OlapEngine::loadStatsFile()
{
    if (statsFile_.empty())
        return;
    std::ifstream in(statsFile_);
    if (!in)
        return; // First run: nothing persisted yet.
    std::string line;
    if (!std::getline(in, line) || line != "pushtap-olap-stats v1")
        return; // Unknown format: ignore; the next save rewrites it.
    // Each record parses into a local and lands in the cache only at
    // its `end` line, so a file cut short mid-record loses just the
    // torn record instead of loading it as if it were whole.
    std::string name;
    PlanStats ps;
    while (std::getline(in, line)) {
        std::istringstream is(line);
        std::string tag;
        is >> tag;
        if (tag == "plan") {
            name.clear();
            is >> name;
            ps = PlanStats{};
        } else if (name.empty()) {
            continue;
        } else if (tag == "runs") {
            is >> ps.runs;
        } else if (tag == "probe") {
            is >> ps.probeVisible >> ps.probeFiltered;
        } else if (tag == "conjunct") {
            std::uint64_t seen = 0, kept = 0;
            is >> seen >> kept;
            if (!is.fail())
                ps.conjuncts.emplace_back(seen, kept);
        } else if (tag == "join") {
            // Counts first, then the signature as the rest of the
            // line (signatures may contain arbitrary punctuation).
            PlanStats::JoinObserved jo;
            is >> jo.in >> jo.out;
            std::string sig;
            std::getline(is, sig);
            if (!sig.empty() && sig.front() == ' ')
                sig.erase(0, 1);
            if (!is.fail() && !sig.empty())
                ps.joins[sig] = jo;
        } else if (tag == "end") {
            statsCache_[name] = std::move(ps);
            ps = PlanStats{};
            name.clear();
        }
    }
}

void
OlapEngine::saveStatsFile() const
{
    if (statsFile_.empty() || statsCache_.empty())
        return;
    // Write a sibling temp file and rename it over the old one: a
    // crash mid-write leaves the previous file intact, never a
    // truncated one.
    const std::string tmp = statsFile_ + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            return;
        out << "pushtap-olap-stats v1\n";
        for (const auto &[name, ps] : statsCache_) {
            out << "plan " << name << "\n";
            out << "runs " << ps.runs << "\n";
            out << "probe " << ps.probeVisible << " "
                << ps.probeFiltered << "\n";
            for (const auto &c : ps.conjuncts)
                out << "conjunct " << c.first << " " << c.second
                    << "\n";
            for (const auto &[sig, jo] : ps.joins)
                out << "join " << jo.in << " " << jo.out << " "
                    << sig << "\n";
            out << "end\n";
        }
        out.close();
        if (!out) {
            std::remove(tmp.c_str());
            return;
        }
    }
    if (std::rename(tmp.c_str(), statsFile_.c_str()) != 0)
        std::remove(tmp.c_str());
}

TimeNs
OlapEngine::busTime(Bytes bytes) const
{
    return timing_.cpuPeakBandwidth().transferTime(bytes);
}

std::uint64_t
OlapEngine::scannedDataRows(const txn::TableRuntime &tbl) const
{
    // An active incremental-pricing override charges the probe table
    // only the rows the delta re-execution actually streamed.
    if (&tbl == scanOverrideTbl_)
        return scanOverrideDataRows_;
    return tbl.usedDataRows();
}

std::uint64_t
OlapEngine::scannedDeltaRows(const txn::TableRuntime &tbl) const
{
    // Old versions are skipped logically but still streamed: with
    // sub-granule row widths skipping discrete bytes saves nothing
    // (section 7.4), so the PIM units walk every allocated delta
    // block. An active incremental-pricing override substitutes the
    // delta rows appended since the cached baseline (then
    // block-rounded identically).
    const std::uint64_t used = &tbl == scanOverrideTbl_
                                   ? scanOverrideDeltaRows_
                                   : tbl.versions().deltaUsed();
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
        (scannedDataRows(tbl) + scannedDeltaRows(tbl)) * width;
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
    auto snapshotTable = [&](std::size_t i) {
        auto &tbl = db_.table(static_cast<ChTable>(i));
        stats[i] = snapshotters_[i].snapshot(tbl.store(),
                                             tbl.versions(), ts);
        // Frontier bookkeeping: a pass that flipped a visibility bit
        // changed what readers of this table can observe.
        if (stats[i].bitsFlipped > 0)
            tbl.bumpSnapshotEpoch();
    };
    if (pool_) {
        pool_->parallelFor(workload::kChTableCount,
                           [&](std::uint32_t, std::size_t i) {
                               snapshotTable(i);
                           });
    } else {
        for (std::size_t i = 0; i < workload::kChTableCount; ++i)
            snapshotTable(i);
    }
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
    auto defragTable = [&](std::size_t i) {
        auto &tbl = db_.table(static_cast<ChTable>(i));
        stats[i] =
            defragmenter_.run(tbl.store(), tbl.versions(), strategy);
        // Frontier bookkeeping: a pass that touched any version
        // recycled delta slots and rewrote data-region bytes, so
        // incremental baselines over this table are void even where
        // the bitmaps end up looking append-only.
        if (stats[i].deltaRows > 0 || stats[i].rowsCopied > 0)
            tbl.bumpRewriteEpoch();
        // Inserted rows are now primary data-region rows.
        tbl.absorbInserts();
        snapshotters_[i].rewind();
    };
    if (pool_) {
        pool_->parallelFor(workload::kChTableCount,
                           [&](std::uint32_t, std::size_t i) {
                               defragTable(i);
                           });
    } else {
        for (std::size_t i = 0; i < workload::kChTableCount; ++i)
            defragTable(i);
    }
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
        static_cast<double>(scannedDataRows(tbl))));
}

bool
OlapEngine::demotedToCpu(const txn::TableRuntime &tbl,
                         const std::string &column) const
{
    return activePlacements_ != nullptr &&
           activePlacements_->count(
               ScanSite{tbl.schema().name(), column}) > 0;
}

void
OlapEngine::priceColumnRead(const txn::TableRuntime &tbl,
                            const std::string &column, pim::OpType op,
                            QueryReport &rep) const
{
    const ColumnId c = tbl.schema().columnId(column);
    const auto &col = tbl.schema().column(c);
    if (col.type == format::ColType::Int &&
        tbl.layout().singlePlacement(c) != nullptr &&
        !demotedToCpu(tbl, column)) {
        const auto &pl = tbl.layout().keyPlacement(c);
        priceScan(tbl, tbl.layout().parts()[pl.part].rowWidth, op,
                  rep);
        return;
    }
    priceCpuGather(tbl, column, rep);
}

void
OlapEngine::priceFusedScan(const txn::TableRuntime &tbl,
                           const std::vector<ColumnId> &columns,
                           QueryReport &rep) const
{
    if (columns.empty())
        return;
    // The fused pass streams every column's slot bytes in one serial
    // scan: the bytes are unchanged, but the per-scan offload fixed
    // costs and phase serialization are paid once instead of once
    // per operator input.
    std::uint32_t width = 0;
    for (const ColumnId c : columns) {
        const auto &pl = tbl.layout().keyPlacement(c);
        width += tbl.layout().parts()[pl.part].rowWidth;
    }
    priceScan(tbl, width, pim::OpType::Aggregation, rep);
}

void
OlapEngine::priceExprColumns(const txn::TableRuntime &tbl,
                             const std::vector<ExprPtr> &exprs,
                             pim::OpType op, QueryReport &rep) const
{
    // Expression columns charge through the same ScanCost footprints
    // as the closed predicate forms: one serial scan per distinct
    // Int column the expression set streams, the CPU gather path for
    // every distinct Char (LIKE) column. std::set keeps the charge
    // order deterministic.
    std::set<std::string> int_cols, char_cols;
    collectExprColumns(exprs, int_cols, char_cols);
    for (const auto &name : char_cols)
        priceCpuGather(tbl, name, rep);
    for (const auto &name : int_cols)
        priceColumnRead(tbl, name, op, rep);
}

void
OlapEngine::priceSubqueries(const QueryPlan &plan,
                            bool probe_keys_fused,
                            QueryReport &rep) const
{
    const auto &probe_tbl = db_.table(plan.probe.table);
    for (const auto &sub : plan.subqueries) {
        const auto &tbl = db_.table(sub.source.table);
        // The pre-pass filters the source exactly like any probe.
        for (const auto &p : sub.source.charPredicates)
            priceCpuGather(tbl, p.column, rep);
        for (const auto &p : sub.source.intPredicates)
            priceColumnRead(tbl, p.column, pim::OpType::Filter,
                            rep);
        priceExprColumns(tbl, sub.source.exprPredicates,
                         pim::OpType::Filter, rep);
        for (const auto &col : sub.groupBy)
            priceColumnRead(tbl, col, pim::OpType::Group, rep);
        std::vector<ExprPtr> inputs;
        for (const auto &agg : sub.aggs)
            inputs.push_back(agg.value);
        priceExprColumns(tbl, inputs, pim::OpType::Aggregation,
                         rep);
        // The probe-side lookup streams each key column once —
        // unless the fused probe pass already streams them.
        if (!probe_keys_fused) {
            std::set<std::string> key_cols;
            for (const auto &key : sub.keys)
                key_cols.insert(key.column);
            for (const auto &name : key_cols)
                priceColumnRead(probe_tbl, name,
                                pim::OpType::Filter, rep);
        }
    }
}

void
OlapEngine::priceQuery(const QueryPlan &plan, bool fuse_probe_scans,
                       QueryReport &rep) const
{
    const auto &probe_tbl = db_.table(plan.probe.table);
    const std::uint64_t probe_rows =
        scannedDataRows(probe_tbl) +
        probe_tbl.versions().deltaUsed();

    // Predicate filters: one serial PIM scan per pushed-down Int
    // predicate column, the CPU gather path for Char predicates and
    // the expression predicates' column sets.
    auto price_input = [&](const TableInput &in) {
        const auto &tbl = db_.table(in.table);
        for (const auto &p : in.charPredicates)
            priceCpuGather(tbl, p.column, rep);
        for (const auto &p : in.intPredicates)
            priceColumnRead(tbl, p.column, pim::OpType::Filter, rep);
        priceExprColumns(tbl, in.exprPredicates, pim::OpType::Filter,
                         rep);
    };

    // One hash-join leg: PIM hashes both key columns, the CPU
    // fetches the hashes, partitions buckets and pushes them back
    // (4 B per value each way), then the PIM units probe within
    // buckets. Fused plans skip the probe-side key Hash scans — the
    // fused probe pass already streams those columns (they are part
    // of fusedProbeColumns whenever the pass fuses).
    auto price_join = [&](const JoinSpec &join,
                          bool price_probe_keys) {
        price_input(join.build);
        const auto &build_tbl = db_.table(join.build.table);
        for (const auto &[build_col, ref] : join.keys) {
            priceColumnRead(build_tbl, build_col, pim::OpType::Hash,
                            rep);
            if (price_probe_keys)
                priceColumnRead(db_.table(tableOf(plan, ref)),
                                ref.column, pim::OpType::Hash, rep);
        }
        const std::uint64_t build_rows = build_tbl.usedDataRows();
        rep.cpuNs += 2.0 * busTime((build_rows + probe_rows) * 4);
        pim::CostModel cm(cfg_.pimConfig);
        rep.pimNs += cm.computeTime(
            pim::OpType::Join,
            (build_rows + probe_rows) / cfg_.geom.pimUnitCount() +
                1);
    };

    if (fuse_probe_scans && planFusesProbePass(plan)) {
        // Modelled fusion: every PIM-scannable probe column of the
        // fused pass in one serial scan; Char predicates (prefix and
        // LIKE) and fragmented columns keep the CPU gather path. The
        // subquery pre-pass stays its own scan set; its probe-side
        // key columns ride the fused pass, as do the probe-side keys
        // of the filter joins (semi/anti selection kernels) — the
        // pass the batch executor actually runs.
        priceSubqueries(plan, /*probe_keys_fused=*/true, rep);
        for (const auto &p : plan.probe.charPredicates)
            priceCpuGather(probe_tbl, p.column, rep);
        // (The expressions' Int columns are already part of
        // fusedProbeColumns and ride the fused scan below.)
        std::set<std::string> expr_int_cols, like_cols;
        collectExprColumns(plan.probe.exprPredicates, expr_int_cols,
                           like_cols);
        for (const auto &name : like_cols)
            priceCpuGather(probe_tbl, name, rep);
        std::vector<ColumnId> fusable;
        for (const auto &name : fusedProbeColumns(plan)) {
            const ColumnId c = probe_tbl.schema().columnId(name);
            if (probe_tbl.schema().column(c).type ==
                    format::ColType::Int &&
                probe_tbl.layout().singlePlacement(c) != nullptr &&
                !demotedToCpu(probe_tbl, name))
                fusable.push_back(c);
            else
                priceCpuGather(probe_tbl, name, rep);
        }
        priceFusedScan(probe_tbl, fusable, rep);
        // The join legs beyond the probe-side keys — build filters,
        // build hash scans, partition shuffle, in-bucket probe — are
        // not fusable and charge exactly as in the per-operator
        // walk.
        for (const auto &join : plan.joins)
            price_join(join, /*price_probe_keys=*/false);
        return;
    }

    priceSubqueries(plan, /*probe_keys_fused=*/false, rep);
    price_input(plan.probe);

    for (const auto &join : plan.joins)
        price_join(join, /*price_probe_keys=*/true);

    // Grouped aggregation: one Group scan per key, one Aggregation
    // scan per aggregated column — every distinct column an
    // aggregate expression streams charges its own scan.
    for (const auto &key : plan.groupBy)
        priceColumnRead(db_.table(tableOf(plan, key)), key.column,
                        pim::OpType::Group, rep);
    for (const auto &agg : plan.aggregates) {
        if (agg.expr) {
            std::set<std::pair<workload::ChTable, std::string>>
                cols;
            forEachColumnRef(
                *agg.expr,
                [&cols, &plan](const ColRef &ref, bool) {
                    cols.emplace(tableOf(plan, ref), ref.column);
                });
            for (const auto &[table, name] : cols)
                priceColumnRead(db_.table(table), name,
                                pim::OpType::Aggregation, rep);
        } else {
            priceColumnRead(db_.table(tableOf(plan, agg.value)),
                            agg.value.column,
                            pim::OpType::Aggregation, rep);
        }
    }
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
        // per-unit partial sums.
        rep.cpuNs += busTime(visible * 2);
        rep.cpuNs += busTime(static_cast<Bytes>(
                                 cfg_.geom.pimUnitCount()) *
                             plan.groupSlots * 8);
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
OlapEngine::pricePlan(const QueryPlan &plan, bool fuse_probe_scans,
                      const PlacementSet *cpu_demotions,
                      std::uint64_t visible_rows) const
{
    // The optimizer's cost function: the exact modelled walk
    // runQuery charges, minus execution and the consistency share.
    // The placement set is active only for the duration of this walk.
    QueryReport rep;
    rep.name = plan.name;
    activePlacements_ = cpu_demotions;
    priceQuery(plan, fuse_probe_scans, rep);
    activePlacements_ = nullptr;
    priceMerge(plan, visible_rows, rep);
    return rep;
}

QueryReport
OlapEngine::runQuery(const QueryPlan &plan, QueryResult *result)
{
    if (cache_)
        return runQueryCached(plan, result);
    return runQueryUncached(plan, result, nullptr);
}

QueryReport
OlapEngine::runQueryUncached(const QueryPlan &plan,
                             QueryResult *result,
                             PlanExecution *exec_out)
{
    if (cfg_.optimize)
        return runQueryOptimized(plan, result, exec_out);

    QueryReport rep;
    rep.name = plan.name;
    rep.consistencyNs = takeConsistency();

    // executePlan validates the plan before any pricing walk. The
    // engine's worker/morsel configuration drives the functional
    // execution; results are byte-identical to the single-threaded
    // defaults by construction.
    ExecOptions exec_opts;
    exec_opts.workers = cfg_.workers;
    exec_opts.morselRows = cfg_.morselRows;
    exec_opts.pool = pool_.get();
    exec_opts.captureGroups = exec_out != nullptr;
    auto exec = executePlan(db_, plan, exec_opts);
    rep.rowsVisible = exec.rowsVisible;
    rep.fusedScanColumns = exec.fusedScanColumns;

    // The hand-built plan is priced per operator (section 6.2).
    priceQuery(plan, /*fuse_probe_scans=*/false, rep);
    priceMerge(plan, exec.rowsVisible, rep);

    if (result)
        *result = exec_out ? exec.result : std::move(exec.result);
    if (exec_out)
        *exec_out = std::move(exec);
    return rep;
}

namespace {

/**
 * Dynamic half of the delta-incremental eligibility gate: every
 * footprint table that the plan reads as a join build or subquery
 * source — including a probe table doubling in such a role — must be
 * fully unchanged, and the probe table may have moved by pure
 * appends only: no defragmentation recycled its slots (rewriteEpoch)
 * and every visibility bit set at the cached frontier is still set
 * (update-in-place clears the previous location's bit, so any
 * in-place write to a visible row fails the subset test).
 */
bool
deltaEligible(const ResultCache::Entry &entry, const QueryPlan &plan,
              const htap::FrontierVector &current,
              const txn::Database &db)
{
    if (!incrementalCapable(plan))
        return false;
    std::set<ChTable> build_or_sub;
    for (const auto &join : plan.joins)
        build_or_sub.insert(join.build.table);
    for (const auto &sub : plan.subqueries)
        build_or_sub.insert(sub.source.table);
    for (const auto &cur : current.tables) {
        const auto *old = entry.frontier.find(cur.table);
        if (old == nullptr)
            return false;
        const bool probe_only =
            cur.table == plan.probe.table &&
            build_or_sub.count(cur.table) == 0;
        if (!probe_only) {
            if (!(*old == cur))
                return false;
            continue;
        }
        if (old->rewriteEpoch != cur.rewriteEpoch)
            return false;
    }
    const auto &store = db.table(plan.probe.table).store();
    return entry.probeData.subsetOf(store.dataVisible()) &&
           entry.probeDelta.subsetOf(store.deltaVisible());
}

} // namespace

QueryReport
OlapEngine::runQueryCached(const QueryPlan &plan,
                           QueryResult *result)
{
    const std::string fp = describePlan(plan);
    auto current = htap::captureFrontier(db_, planFootprint(plan));
    const auto &probe_tbl = db_.table(plan.probe.table);

    if (auto *entry = cache_->find(fp)) {
        if (entry->frontier == current) {
            // Exact hit: nothing any footprint table exposes to a
            // reader moved, so the materialized answer is returned
            // without executing. Only the consistency share is
            // fresh — it belongs to this invocation, not the cached
            // run.
            ++cache_->hits;
            QueryReport rep = entry->report;
            rep.cacheHit = true;
            rep.incrementalRows = 0;
            rep.deltaScanNs = 0.0;
            rep.consistencyNs = takeConsistency();
            if (result)
                *result = entry->result;
            return rep;
        }
        if (deltaEligible(*entry, plan, current, db_))
            return runQueryIncremental(plan, result, *entry,
                                       std::move(current));
    }

    // Cold run or fallback: execute in full (capturing the group
    // accumulators) and refresh the entry.
    ++cache_->misses;
    PlanExecution exec;
    QueryReport rep = runQueryUncached(plan, result, &exec);
    auto &entry = cache_->upsert(fp);
    // The pre-execution capture is the conservative frontier choice:
    // commits landing mid-run make the stored vector stale-low, which
    // can only cause a future miss, never a stale hit.
    entry.frontier = std::move(current);
    entry.probeData = probe_tbl.store().dataVisible();
    entry.probeDelta = probe_tbl.store().deltaVisible();
    entry.groups = std::move(exec.groups);
    entry.rowsVisible = exec.rowsVisible;
    entry.result = std::move(exec.result);
    entry.report = rep;
    return rep;
}

QueryReport
OlapEngine::runQueryIncremental(const QueryPlan &plan,
                                QueryResult *result,
                                ResultCache::Entry &entry,
                                htap::FrontierVector current)
{
    ++cache_->incrementals;
    const auto &probe_tbl = db_.table(plan.probe.table);
    const auto &store = probe_tbl.store();

    QueryReport rep;
    rep.name = plan.name;
    rep.consistencyNs = takeConsistency();

    // Re-execute the hand-built plan scanning only the probe rows
    // appended since the cached baseline (builds and subqueries
    // re-run over their unchanged tables). The optimizer is bypassed
    // on purpose: the delta is small by construction and its
    // observed stats would poison the full-run stats cache.
    ExecOptions exec_opts;
    exec_opts.workers = cfg_.workers;
    exec_opts.morselRows = cfg_.morselRows;
    exec_opts.pool = pool_.get();
    exec_opts.captureGroups = true;
    exec_opts.probeBaselineData = &entry.probeData;
    exec_opts.probeBaselineDelta = &entry.probeDelta;
    const auto t0 = std::chrono::steady_clock::now();
    auto exec = executePlan(db_, plan, exec_opts);
    rep.deltaScanNs = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    rep.incrementalRows = exec.rowsVisible;
    rep.fusedScanColumns = exec.fusedScanColumns;

    // Fold the delta accumulators into the cached ones and
    // materialize through the executor's own tail. Every aggregate
    // is a commutative, associative fold, so the merged state — and
    // therefore the materialized rows — is byte-identical to a cold
    // run over the union of baseline and delta rows.
    foldGroups(plan, entry.groups, exec.groups);
    entry.rowsVisible += exec.rowsVisible;
    entry.result = materializeGroups(plan, entry.groups);
    rep.rowsVisible = entry.rowsVisible;

    // Keep the optimizer's feedback loop whole across cache-served
    // runs. The delta counts are additive over the disjoint appended
    // rows, so folding them into the stored observation reproduces
    // exactly what a full run at the new frontier would have
    // measured; join flows fold only into signatures the cold run
    // already recorded (a demotion may have renamed them) so a
    // delta-only orphan can never mislead the reorderer.
    if (cfg_.optimize) {
        auto &ps = statsCache_[plan.name];
        ++ps.runs;
        ps.probeVisible += exec.stats.probeVisible;
        ps.probeFiltered += exec.stats.probeFiltered;
        for (std::size_t k = 0; k < plan.joins.size(); ++k) {
            const auto it = ps.joins.find(joinSignature(plan, k));
            if (it != ps.joins.end()) {
                it->second.in += exec.stats.joins[k].in;
                it->second.out += exec.stats.joins[k].out;
            }
        }
        if (ps.conjuncts.size() == exec.stats.conjuncts.size())
            for (std::size_t c = 0; c < ps.conjuncts.size(); ++c) {
                ps.conjuncts[c].first +=
                    exec.stats.conjuncts[c].first;
                ps.conjuncts[c].second +=
                    exec.stats.conjuncts[c].second;
            }
    }

    // The decision record of the cold run still describes how this
    // answer's accumulators were produced, so cache-served reports
    // keep surfacing it. The priced pair is the optimizer's
    // chosen-vs-hand-built comparison at the cold frontier — a
    // decision record, not this invocation's delta-only charges.
    if (entry.report.optimized) {
        rep.optimized = true;
        rep.planSummary = entry.report.planSummary;
        rep.execWorkers = entry.report.execWorkers;
        rep.execMorselRows = entry.report.execMorselRows;
        rep.cpuDemotedScans = entry.report.cpuDemotedScans;
        rep.joinsReordered = entry.report.joinsReordered;
        rep.joinsDemoted = entry.report.joinsDemoted;
        rep.pricedChosenNs = entry.report.pricedChosenNs;
        rep.pricedHandBuiltNs = entry.report.pricedHandBuiltNs;
    }

    // Price the probe as a delta-only ScanCost schedule — the rows
    // actually streamed — while the re-run build/subquery tables
    // keep their full charges. The baseline bitmaps are subsets of
    // the current ones here, so the count difference is exactly the
    // appended-row count per region.
    scanOverrideTbl_ = &probe_tbl;
    scanOverrideDataRows_ =
        store.dataVisible().count() - entry.probeData.count();
    scanOverrideDeltaRows_ =
        store.deltaVisible().count() - entry.probeDelta.count();
    priceQuery(plan, /*fuse_probe_scans=*/false, rep);
    scanOverrideTbl_ = nullptr;
    priceMerge(plan, rep.rowsVisible, rep);

    // Refresh the entry at the new frontier so incremental runs
    // chain: the next rep folds only rows appended after this one.
    entry.frontier = std::move(current);
    entry.probeData = store.dataVisible();
    entry.probeDelta = store.deltaVisible();
    entry.report = rep;
    entry.report.cacheHit = false;

    if (result)
        *result = entry.result;
    return rep;
}

} // namespace pushtap::olap
