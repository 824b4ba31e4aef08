#pragma once

/**
 * @file
 * Concurrent multi-writer OLTP front end: a worker-per-thread
 * transaction layer that executes a Payment/New-Order stream
 * partitioned by home warehouse while preserving the exact serial
 * schedule semantics.
 *
 * The design is deterministic-first (Calvin-style):
 *  1. The schedule is generated serially: every transaction's random
 *     parameters are drawn off one Rng stream (bit-identical to the
 *     single-threaded engine's stream) and its commit timestamp is
 *     pre-assigned from one atomic reservation.
 *  2. Transactions are partitioned by home warehouse modulo the
 *     worker count, a locality heuristic, not a correctness
 *     requirement. Every writer of a WAREHOUSE row and of its
 *     DISTRICT rows shares one partition, and each partition drains
 *     in timestamp order, so W warehouses drain on min(W, P)
 *     workers; at one warehouse the whole batch drains on one
 *     worker by design.
 *  3. Cross-partition conflicts (CUSTOMER and STOCK rows, which are
 *     keyed across warehouses; NewOrder's CUSTOMER read counts as
 *     one, since the chain steps it charges depend on which writes
 *     it sees) are ordered by per-row gates. While building the
 *     schedule the group walks each transaction's
 *     TpccEngine::footprint (the gated rows it accesses, resolved
 *     when it was drawn), keeps each gated row's last scheduled
 *     writer, and records for every access that writer's timestamp
 *     when it belongs to another partition, else 0 (a same-partition
 *     predecessor has already run; so has the transaction itself
 *     when it names a row twice). A worker enters all of a
 *     transaction's gates, each waiting until the row's atomic
 *     reaches the recorded timestamp, before TpccEngine::execute, and
 *     leaves them after the commit. Waits only ever target strictly
 *     smaller timestamps and the globally smallest unfinished
 *     transaction sits at the head of its partition's queue, so the
 *     schedule is deadlock-free.
 *  4. Before execution starts the group pre-computes each table's
 *     per-rotation-class version counts and pre-grows the delta
 *     regions, so no storage reallocation can happen under
 *     concurrent snapshot readers.
 *
 * Row values at any commit frontier F equal the serial execution's
 * values at F: every value-carrying read is a same-row RMW ordered by
 * its partition or its gate (or reads an immutable table), so per-row
 * write order, which is timestamp order, determines all visible
 * bytes. OLAP snapshots taken at F during ingest therefore return
 * byte-identical query results to a serial run stopped at F.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "dram/timing_model.hpp"
#include "format/bandwidth.hpp"
#include "txn/database.hpp"
#include "txn/tpcc_engine.hpp"

namespace pushtap::txn {

struct TxnWorkerGroupOptions
{
    /** Worker (and partition) count; 0 means hardware threads. */
    std::uint32_t workers = 1;
    /** Seed of the serial schedule stream (matches TpccEngine). */
    std::uint64_t seed = 7;
};

/**
 * Row-level ordering gates for concurrent execution: one atomic per
 * row of each gated table, holding the timestamp of the last writer
 * that left the row. Before a transaction's first access, its worker
 * enters the gate of every gated row it accesses, naming the row's
 * scheduled predecessor, and enter() blocks until that writer has
 * left. Gates are held until after the commit (2PL-style), so a
 * same-row successor never observes a partial transaction. A row's
 * writers leave in timestamp order, so its atomic only grows.
 */
class TxnGate
{
  public:
    /** Released gates over every row @p db's gated tables can hold. */
    explicit TxnGate(const Database &db);

    /**
     * Block until the writer at @p pred has left (t, row), counting
     * the wait in @p counts; pred 0 (no predecessor to wait for)
     * returns at once.
     */
    void enter(workload::ChTable t, RowId row, Timestamp pred,
               GateCounts &counts) const;

    /** The writer at @p ts leaves (t, row). */
    void
    leave(workload::ChTable t, RowId row, Timestamp ts)
    {
        applied(t, row).store(ts, std::memory_order_release);
    }

  private:
    std::atomic<Timestamp> &
    applied(workload::ChTable t, RowId row) const
    {
        return applied_[static_cast<std::size_t>(t)][row];
    }

    /** Per table, by row; null for tables without gates. */
    std::array<std::unique_ptr<std::atomic<Timestamp>[]>,
               workload::kChTableCount>
        applied_;
};

class TxnWorkerGroup
{
  public:
    TxnWorkerGroup(Database &db, InstanceFormat fmt,
                   const format::BandwidthModel &bw,
                   const dram::BatchTimingModel &timing,
                   const TxnWorkerGroupOptions &opts = {});
    ~TxnWorkerGroup();

    TxnWorkerGroup(const TxnWorkerGroup &) = delete;
    TxnWorkerGroup &operator=(const TxnWorkerGroup &) = delete;

    /** Execute @p n transactions of the 50/50 mix; blocks. */
    void run(std::uint64_t n);

    /**
     * Build the schedule (serial: reserves timestamps, pre-grows
     * storage) and launch execution in the background. OLAP queries
     * may run concurrently against any frontier <= commitFrontier().
     */
    void start(std::uint64_t n);

    /** Wait for a start()ed batch to finish. */
    void finish();

    /**
     * Highest timestamp F such that every transaction with ts <= F
     * has committed. Monotonic during a run; base + n once done.
     */
    Timestamp commitFrontier() const;

    std::uint32_t workers() const { return pool_.workers(); }

    /** First timestamp of the current batch minus one. */
    Timestamp scheduleBase() const { return base_; }

    /** Merged per-worker statistics, gate counters included. */
    TxnStats stats() const;

  private:
    void buildSchedule(std::uint64_t n);
    void executeSchedule();
    void drainPartition(std::uint32_t p);

    /** A scheduled transaction's partition: its home warehouse. */
    std::uint32_t
    partitionOf(const TxnDescriptor &d) const
    {
        return static_cast<std::uint32_t>(d.warehouse %
                                          pool_.workers());
    }

    /**
     * Schedule @p d's entry into (t, row)'s gate: record the row's
     * last scheduled writer when it runs in another partition of this
     * batch, else 0, and make @p d that writer.
     */
    void scheduleGate(workload::ChTable t, RowId row,
                      const TxnDescriptor &d);

    /** Sentinel published by a partition that has drained fully. */
    static constexpr Timestamp kPartitionDone = kInvalidTimestamp;

    Database &db_;
    WorkerPool pool_;
    TxnGate gate_;
    Rng rng_;

    std::vector<TxnDescriptor> schedule_;
    Timestamp base_ = 0;
    std::uint64_t count_ = 0;

    /**
     * Per gated table and row: the timestamp of the row's last
     * scheduled writer, 0 if none. Kept across batches; an entry at
     * or below base_ belongs to a finished batch.
     */
    std::array<std::vector<Timestamp>, workload::kChTableCount>
        lastWriter_;
    /** Every transaction's footprint, by transaction. */
    std::vector<TxnAccess> accesses_;
    /** Each access's cross-partition predecessor (or 0). */
    std::vector<Timestamp> waits_;
    /** Transaction i's accesses are accesses_[accessBegin_[i]] up to
     *  accesses_[accessBegin_[i + 1]]. */
    std::vector<std::uint32_t> accessBegin_;

    struct Partition
    {
        std::unique_ptr<TpccEngine> engine;
        std::vector<std::uint32_t> queue; ///< schedule_ indices, ts order.
        std::atomic<Timestamp> nextPending{kInvalidTimestamp};
        /** Per table, the gates its transactions entered. */
        std::array<GateCounts, workload::kChTableCount> gates{};
    };
    std::unique_ptr<Partition[]> partitions_;

    std::thread runner_;
};

} // namespace pushtap::txn
