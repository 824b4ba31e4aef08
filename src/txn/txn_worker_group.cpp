#include "txn/txn_worker_group.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/log.hpp"
#include "workload/ch_schema.hpp"

namespace pushtap::txn {

using workload::ChTable;

TxnWorkerGroup::TxnWorkerGroup(Database &db, InstanceFormat fmt,
                               const format::BandwidthModel &bw,
                               const dram::BatchTimingModel &timing,
                               const TxnWorkerGroupOptions &opts)
    : db_(db), pool_(opts.workers), gate_(db), rng_(opts.seed)
{
    const std::uint32_t p = pool_.workers();
    engines_.reserve(p);
    for (std::uint32_t i = 0; i < p; ++i) {
        engines_.push_back(std::make_unique<TpccEngine>(
            db, fmt, bw, timing, opts.seed, opts.cost));
        engines_.back()->setGate(&gate_);
    }
    partitions_ = std::make_unique<Partition[]>(p);
    for (const ChTable t : kGatedTables)
        lastWriter_[static_cast<std::size_t>(t)].assign(
            db.table(t).dataCapacity(), 0);
}

TxnWorkerGroup::~TxnWorkerGroup()
{
    finish();
}

void
TxnWorkerGroup::scheduleGate(ChTable t, RowId row,
                             const TxnDescriptor &d)
{
    Timestamp &last = lastWriter_[static_cast<std::size_t>(t)][row];
    // An entry at or below base_ is a finished batch's writer.
    const bool cross =
        last > base_ &&
        partitionOf(schedule_[last - base_ - 1]) != partitionOf(d);
    waits_.push_back(cross ? last : 0);
    last = d.ts;
}

void
TxnWorkerGroup::buildSchedule(std::uint64_t n)
{
    if (runner_.joinable())
        fatal("TxnWorkerGroup: previous batch still running; call "
              "finish() first");

    const std::uint32_t parts = pool_.workers();
    schedule_.clear();
    schedule_.reserve(n);
    waits_.clear();
    waitBegin_.clear();
    waitBegin_.reserve(n + 1);
    for (std::uint32_t p = 0; p < parts; ++p) {
        partitions_[p].queue.clear();
        partitions_[p].nextPending.store(
            kPartitionDone, std::memory_order_relaxed);
    }
    count_ = n;
    base_ = db_.reserveTimestamps(n);

    // 1. Draw every transaction off the one serial stream and
    //    pre-assign its commit timestamp.
    for (std::uint64_t i = 0; i < n; ++i) {
        TxnDescriptor d = TpccEngine::genMixed(rng_, db_);
        d.ts = base_ + 1 + i;
        schedule_.push_back(d);
    }

    // 2. Partition by home warehouse, schedule each row gate's
    //    cross-partition predecessor (in ts order, deduplicated per
    //    transaction exactly as the engine enters them) and count
    //    versions per rotation class.
    std::array<std::vector<std::uint64_t>, workload::kChTableCount>
        per_class;
    std::array<std::uint64_t, workload::kChTableCount> inserts{};
    for (std::size_t t = 0; t < workload::kChTableCount; ++t)
        per_class[t].assign(db_.table(static_cast<ChTable>(t))
                                .versions()
                                .rotationClasses(),
                            0);

    const auto row_of = [&](ChTable t, std::uint64_t key) {
        const auto row = db_.table(t).index().lookup(key);
        if (!row)
            panic("missing key {} in table {}", key,
                  db_.table(t).schema().name());
        return *row;
    };
    const auto bump = [&](ChTable t, RowId row) {
        auto &vm = db_.table(t).versions();
        ++per_class[static_cast<std::size_t>(t)]
                   [vm.rotationClassOf(row)];
    };
    const auto count_insert = [&](ChTable t, std::uint64_t k) {
        inserts[static_cast<std::size_t>(t)] += k;
    };

    std::vector<RowId> seen_stock;
    for (std::uint32_t i = 0; i < schedule_.size(); ++i) {
        const TxnDescriptor &d = schedule_[i];
        const std::uint32_t p = partitionOf(d);
        partitions_[p].queue.push_back(i);
        waitBegin_.push_back(static_cast<std::uint32_t>(waits_.size()));

        if (d.kind == TxnDescriptor::Kind::Payment) {
            const RowId wrow =
                row_of(ChTable::Warehouse, packKey(d.warehouse));
            const RowId drow = row_of(
                ChTable::District, packKey(d.warehouse, d.district));
            const RowId crow = row_of(ChTable::Customer,
                                      packKey(0, 0, d.customer));
            scheduleGate(ChTable::Warehouse, wrow, d);
            scheduleGate(ChTable::District, drow, d);
            scheduleGate(ChTable::Customer, crow, d);
            bump(ChTable::Warehouse, wrow);
            bump(ChTable::District, drow);
            bump(ChTable::Customer, crow);
            count_insert(ChTable::History, 1);
        } else {
            const RowId drow = row_of(
                ChTable::District, packKey(d.warehouse, d.district));
            scheduleGate(ChTable::District, drow, d);
            scheduleGate(ChTable::Customer,
                         row_of(ChTable::Customer,
                                packKey(0, 0, d.customer)),
                         d);
            bump(ChTable::District, drow);
            seen_stock.clear();
            for (const TxnLine &line : d.lines) {
                const RowId srow = row_of(ChTable::Stock,
                                          packKey(0, 0, line.item));
                // Duplicate items create two versions but enter the
                // row's gate once (mirrors TpccEngine::gateEnter).
                bump(ChTable::Stock, srow);
                if (std::find(seen_stock.begin(), seen_stock.end(),
                              srow) == seen_stock.end()) {
                    scheduleGate(ChTable::Stock, srow, d);
                    seen_stock.push_back(srow);
                }
            }
            count_insert(ChTable::OrderLine,
                         workload::kLinesPerOrder);
            count_insert(ChTable::Orders, 1);
            count_insert(ChTable::NewOrder, 1);
        }
    }
    waitBegin_.push_back(static_cast<std::uint32_t>(waits_.size()));

    // 3. Inserted rows also become delta versions. Which transaction
    //    claims which tail row is scheduling-dependent, but the
    //    claimed *set* is exactly the next `inserts[t]` rows of each
    //    table's tail, so the per-class totals are deterministic.
    for (std::size_t t = 0; t < workload::kChTableCount; ++t) {
        if (inserts[t] == 0)
            continue;
        auto &tbl = db_.table(static_cast<ChTable>(t));
        const std::uint64_t used = tbl.usedDataRows();
        if (used + inserts[t] > tbl.dataCapacity())
            fatal("table {}: scheduled batch needs {} insert rows "
                  "but only {} remain of {}",
                  tbl.schema().name(), inserts[t],
                  tbl.dataCapacity() - used, tbl.dataCapacity());
        for (std::uint64_t r = used; r < used + inserts[t]; ++r)
            ++per_class[t][tbl.versions().rotationClassOf(r)];
    }

    // 4. Pre-grow each delta region to the exact bound of the batch,
    //    so no storage reallocation happens under concurrent readers.
    for (std::size_t t = 0; t < workload::kChTableCount; ++t) {
        bool any = false;
        for (const auto k : per_class[t])
            any = any || k > 0;
        if (!any)
            continue;
        auto &tbl = db_.table(static_cast<ChTable>(t));
        const std::uint64_t bound =
            tbl.versions().slotBoundWithExtra(per_class[t]);
        if (bound > tbl.store().deltaRows())
            tbl.store().growDelta(bound);
    }

    // 5. Publish the initial per-partition frontier markers.
    for (std::uint32_t p = 0; p < parts; ++p) {
        auto &part = partitions_[p];
        part.nextPending.store(
            part.queue.empty()
                ? kPartitionDone
                : schedule_[part.queue.front()].ts,
            std::memory_order_release);
    }
}

void
TxnWorkerGroup::drainPartition(std::uint32_t p)
{
    Partition &part = partitions_[p];
    TpccEngine &engine = *engines_[p];
    const std::size_t n = part.queue.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t k = part.queue[i];
        engine.execute(schedule_[k],
                       std::span(waits_).subspan(
                           waitBegin_[k], waitBegin_[k + 1] - waitBegin_[k]));
        part.nextPending.store(
            i + 1 < n ? schedule_[part.queue[i + 1]].ts
                      : kPartitionDone,
            std::memory_order_release);
    }
}

void
TxnWorkerGroup::executeSchedule()
{
    // One task per partition. The pool does not give each partition
    // a worker of its own (the caller or a fast thread may drain two
    // in turn), but the job stays open to waking threads until every
    // partition is claimed, so the partition a gate waits on always
    // finds a worker and the oldest unfinished transaction can run.
    pool_.parallelFor(pool_.workers(),
                      [this](std::uint32_t, std::size_t p) {
                          drainPartition(
                              static_cast<std::uint32_t>(p));
                      });
}

void
TxnWorkerGroup::run(std::uint64_t n)
{
    buildSchedule(n);
    executeSchedule();
}

void
TxnWorkerGroup::start(std::uint64_t n)
{
    buildSchedule(n);
    runner_ = std::thread([this] { executeSchedule(); });
}

void
TxnWorkerGroup::finish()
{
    if (runner_.joinable())
        runner_.join();
}

Timestamp
TxnWorkerGroup::commitFrontier() const
{
    Timestamp lowest = kPartitionDone;
    for (std::uint32_t p = 0; p < pool_.workers(); ++p)
        lowest = std::min(
            lowest, partitions_[p].nextPending.load(
                        std::memory_order_acquire));
    if (lowest == kPartitionDone)
        return base_ + count_;
    return lowest - 1;
}

TxnStats
TxnWorkerGroup::stats() const
{
    TxnStats merged;
    for (const auto &e : engines_)
        merged.merge(e->stats());
    return merged;
}

} // namespace pushtap::txn
