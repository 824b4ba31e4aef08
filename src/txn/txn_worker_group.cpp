#include "txn/txn_worker_group.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "workload/ch_schema.hpp"

namespace pushtap::txn {

using workload::ChTable;

TxnGate::TxnGate(const Database &db)
{
    // make_unique value-initializes: every row starts released at 0.
    for (const ChTable t : kGatedTables)
        applied_[static_cast<std::size_t>(t)] =
            std::make_unique<std::atomic<Timestamp>[]>(
                db.table(t).dataCapacity());
}

void
TxnGate::enter(ChTable t, RowId row, Timestamp pred,
               GateCounts &counts) const
{
    if (pred == 0)
        return;
    ++counts.waits;
    const std::atomic<Timestamp> &a = applied(t, row);
    if (a.load(std::memory_order_acquire) >= pred)
        return;
    ++counts.stalls;
    const auto start = std::chrono::steady_clock::now();
    // pred is smaller than the caller's own timestamp, so waits form
    // no cycle.
    while (a.load(std::memory_order_acquire) < pred)
        std::this_thread::yield();
    counts.stallNs += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
}

TxnWorkerGroup::TxnWorkerGroup(Database &db, InstanceFormat fmt,
                               const format::BandwidthModel &bw,
                               const dram::BatchTimingModel &timing,
                               const TxnWorkerGroupOptions &opts)
    : db_(db), pool_(opts.workers), gate_(db), rng_(opts.seed)
{
    partitions_ = std::make_unique<Partition[]>(pool_.workers());
    for (std::uint32_t p = 0; p < pool_.workers(); ++p)
        partitions_[p].engine = std::make_unique<TpccEngine>(
            db, fmt, bw, timing, opts.seed);
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
    accesses_.clear();
    waits_.clear();
    accessBegin_.clear();
    accessBegin_.reserve(n + 1);
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

    // 2. Partition by home warehouse, walk each transaction's
    //    footprint in ts order to schedule its gates' cross-partition
    //    predecessors, and count versions per rotation class.
    std::array<std::vector<std::uint64_t>, workload::kChTableCount>
        per_class;
    std::array<std::uint64_t, workload::kChTableCount> inserts{};
    for (std::size_t t = 0; t < workload::kChTableCount; ++t)
        per_class[t].assign(db_.table(static_cast<ChTable>(t))
                                .versions()
                                .rotationClasses(),
                            0);

    for (std::uint32_t i = 0; i < schedule_.size(); ++i) {
        const TxnDescriptor &d = schedule_[i];
        partitions_[partitionOf(d)].queue.push_back(i);
        accessBegin_.push_back(
            static_cast<std::uint32_t>(accesses_.size()));
        TpccEngine::footprint(d, accesses_, inserts);
        for (std::size_t k = accessBegin_.back(); k < accesses_.size();
             ++k) {
            const TxnAccess &a = accesses_[k];
            scheduleGate(a.table, a.row, d);
            if (a.writes) {
                auto &vm = db_.table(a.table).versions();
                ++per_class[static_cast<std::size_t>(a.table)]
                           [vm.rotationClassOf(a.row)];
            }
        }
    }
    accessBegin_.push_back(static_cast<std::uint32_t>(accesses_.size()));

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
    const std::size_t n = part.queue.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t k = part.queue[i];
        const TxnDescriptor &d = schedule_[k];
        // Hold every gate from before the first access until after
        // the commit.
        for (std::uint32_t a = accessBegin_[k]; a < accessBegin_[k + 1];
             ++a) {
            const TxnAccess &acc = accesses_[a];
            gate_.enter(acc.table, acc.row, waits_[a],
                        part.gates[static_cast<std::size_t>(acc.table)]);
        }
        part.engine->execute(d);
        for (std::uint32_t a = accessBegin_[k]; a < accessBegin_[k + 1];
             ++a)
            gate_.leave(accesses_[a].table, accesses_[a].row, d.ts);
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
    for (std::uint32_t p = 0; p < pool_.workers(); ++p) {
        // An engine counts no gates; its partition's worker does.
        TxnStats s = partitions_[p].engine->stats();
        s.gates = partitions_[p].gates;
        merged.merge(s);
    }
    return merged;
}

} // namespace pushtap::txn
