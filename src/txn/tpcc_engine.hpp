#pragma once

/**
 * @file
 * TPC-C transaction engine (Payment + New-Order, ~90% of the TPC-C
 * mix, section 7.1) over the single-instance database. Every
 * transaction is executed functionally (real row bytes move through
 * the MVCC machinery) while a cost model accumulates the CPU-side
 * breakdown of Fig. 11(c) (indexing / allocation / computation /
 * version-chain traversal) and the DRAM line traffic implied by the
 * instance's storage format (Fig. 9(a)).
 *
 * Execution is split into two halves so a multi-worker front end can
 * reuse it: gen*() draws a transaction's parameters into a
 * TxnDescriptor (serially, off one Rng stream) and resolves every row
 * it names through the primary-key indexes, and execute() applies a
 * descriptor at its pre-assigned commit timestamp without touching an
 * index. The single-threaded execute*() conveniences compose the two,
 * consuming the identical random stream the pre-split engine did.
 * footprint() lists the gated rows a descriptor accesses, next to the
 * apply*() code that accesses them; the engine orders nothing itself
 * (TxnWorkerGroup does, around execute()).
 *
 * The cost model is evaluated once per engine, not per statement.
 * Construction resolves every (table, statement) pair the two
 * transactions execute into an access site: the statement's column
 * ids plus each modelled charge that depends only on the table
 * layout and the instance format (read lines and their latency,
 * re-layout, write lines at the core's bus share). execute() adds
 * those precomputed numbers in the order the per-statement model did,
 * so every modelled figure is bit-identical to evaluating the model
 * on each access; only the run-dependent charges (index probes, chain
 * steps) are computed per call.
 */

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "dram/timing_model.hpp"
#include "format/bandwidth.hpp"
#include "txn/database.hpp"
#include "workload/ch_gen.hpp"

namespace pushtap::txn {

/** CPU cost components (Fig. 11(c) plus re-layout and commit). */
enum class TxnCpu : std::uint8_t
{
    Allocation,
    ChainTraverse,
    Commit,
    Computation,
    Indexing,
    Relayout,
};

/** Names of the TxnCpu components, in enum (= ascending) order. */
inline constexpr std::array<std::string_view, 6> kTxnCpuNames = {
    "allocation", "chain_traverse", "commit",
    "computation", "indexing", "relayout",
};

/**
 * One table's row-gate counters under concurrent execution (host
 * side, not modelled): the schedule's cross-partition waits, the
 * waits that found the predecessor still holding the row (stalls),
 * and the host time those stalls took. TxnWorkerGroup enters the
 * gates and counts them; an engine's own stats count none.
 */
struct GateCounts
{
    std::uint64_t waits = 0;
    std::uint64_t stalls = 0;
    std::uint64_t stallNs = 0;
};

struct TxnStats
{
    std::uint64_t transactions = 0;
    std::uint64_t payments = 0;
    std::uint64_t newOrders = 0;
    std::uint64_t versionsCreated = 0;

    SlotBreakdown<TxnCpu, kTxnCpuNames> cpu;
    double memLines = 0.0;
    TimeNs memTimeNs = 0.0;

    /** Per table, indexed by ChTable. */
    std::array<GateCounts, workload::kChTableCount> gates{};

    GateCounts &
    gate(workload::ChTable t)
    {
        return gates[static_cast<std::size_t>(t)];
    }
    const GateCounts &
    gate(workload::ChTable t) const
    {
        return gates[static_cast<std::size_t>(t)];
    }

    /** Fold another worker's stats into this one. */
    void
    merge(const TxnStats &o)
    {
        transactions += o.transactions;
        payments += o.payments;
        newOrders += o.newOrders;
        versionsCreated += o.versionsCreated;
        cpu.merge(o.cpu);
        memLines += o.memLines;
        memTimeNs += o.memTimeNs;
        for (std::size_t t = 0; t < gates.size(); ++t) {
            gates[t].waits += o.gates[t].waits;
            gates[t].stalls += o.gates[t].stalls;
            gates[t].stallNs += o.gates[t].stallNs;
        }
    }

    TimeNs
    totalNs() const
    {
        return cpu.total() + memTimeNs;
    }

    TimeNs
    avgTxnNs() const
    {
        return transactions ? totalNs() /
                                  static_cast<double>(transactions)
                            : 0.0;
    }
};

/**
 * A row a transaction names, resolved when the transaction is drawn:
 * its id and the probes its primary-key lookup took, which execution
 * charges as that lookup's Indexing cost. The indexes do not change
 * after Database::populate, so both are what execution would find.
 */
struct TxnRow
{
    RowId row = 0;
    std::uint64_t probes = 0;
};

/** One New-Order order line's pre-drawn parameters. */
struct TxnLine
{
    std::uint64_t item = 0;
    std::int64_t qty = 1;
    TxnRow itemRow;
    TxnRow stockRow;
};

/**
 * A fully parameterised transaction: every random draw is made up
 * front and every row it names is resolved (by the gen* helpers, off
 * one serial Rng stream), and the commit timestamp is pre-assigned,
 * so execution itself is deterministic and can be partitioned across
 * worker threads.
 */
struct TxnDescriptor
{
    enum class Kind : std::uint8_t
    {
        Payment,
        NewOrder,
    };

    Kind kind = Kind::Payment;
    Timestamp ts = 0;
    std::uint64_t warehouse = 0;
    std::uint64_t district = 0;
    std::uint64_t customer = 0;
    std::int64_t amount = 0; ///< Payment only.
    TxnRow warehouseRow;     ///< Payment only.
    TxnRow districtRow;
    TxnRow customerRow;
    std::array<TxnLine, workload::kLinesPerOrder> lines{}; ///< NewOrder.
};

/** The tables whose rows Payment and NewOrder read-modify-write. */
inline constexpr std::array<workload::ChTable, 4> kGatedTables = {
    workload::ChTable::Warehouse, workload::ChTable::District,
    workload::ChTable::Customer, workload::ChTable::Stock};

/** One access of a transaction to a row of a gated table. */
struct TxnAccess
{
    workload::ChTable table{};
    bool writes = false;
    RowId row = 0;
};

class TpccEngine
{
  public:
    TpccEngine(Database &db, InstanceFormat fmt,
               const format::BandwidthModel &bw,
               const dram::BatchTimingModel &timing,
               std::uint64_t seed = 7);

    /** Execute one Payment transaction; returns commit timestamp. */
    Timestamp executePayment();

    /** Execute one New-Order transaction. */
    Timestamp executeNewOrder();

    /** Execute one transaction of the 50/50 mix. */
    Timestamp executeMixed();

    /**
     * Draw a transaction's parameters from @p rng and resolve the
     * rows they name, without executing anything (or touching
     * timestamps). The draw order matches the execute*() paths
     * exactly, so a scheduler generating descriptors serially
     * consumes the identical random stream.
     */
    static TxnDescriptor genPayment(Rng &rng, const Database &db);
    static TxnDescriptor genNewOrder(Rng &rng, const Database &db);
    static TxnDescriptor genMixed(Rng &rng, const Database &db);

    /**
     * Execute a pre-parameterised transaction at its pre-assigned
     * timestamp. It takes no lock: a concurrent caller orders
     * execute() against other writers of the rows footprint() lists.
     */
    Timestamp execute(const TxnDescriptor &d);

    /**
     * Append to @p rows every access @p d makes to a row of a gated
     * table (kGatedTables), in execution order and with whether it
     * writes the row: a row the transaction names twice is listed
     * twice. Add to @p inserts the rows @p d inserts, per table.
     */
    static void
    footprint(const TxnDescriptor &d, std::vector<TxnAccess> &rows,
              std::array<std::uint64_t, workload::kChTableCount> &inserts);

    const TxnStats &stats() const { return stats_; }
    void resetStats() { stats_ = TxnStats{}; }

    InstanceFormat instanceFormat() const { return fmt_; }

  private:
    /**
     * One (table, statement) pair, resolved at construction: the
     * columns the statement names, in the order execute() uses them,
     * and the modelled charges of reading them from one row. Insert
     * statements read nothing; their read charges stay zero.
     */
    struct AccessSite
    {
        workload::ChTable table{};
        const format::TableSchema *schema = nullptr;
        std::array<ColumnId, 9> columns{}; ///< Widest: ORDERLINE insert.
        std::uint32_t columnCount = 0;
        double readLines = 0.0;      ///< DRAM lines of one read.
        double readMemNs = 0.0;      ///< Their latency / overlap.
        double readRelayoutNs = 0.0; ///< Unified: per column loaded.
    };

    /** Modelled charges of writing one new version of a row. */
    struct WriteSite
    {
        double lines = 0.0;      ///< Amortised DRAM lines.
        double memNs = 0.0;      ///< Lines at the core's bus share.
        double relayoutNs = 0.0; ///< Unified: per fragment scattered.
    };

    /** Every statement Payment and NewOrder execute. */
    struct Sites
    {
        AccessSite payWarehouse, payDistrict, payCustomer, payHistory;
        AccessSite noDistrict, noCustomer, noItem, noStock;
        AccessSite noOrderLine, noOrders, noNewOrder;
    };

    /** Resolve every site against this instance's cost model. */
    Sites resolveSites(const format::BandwidthModel &bw,
                       const dram::BatchTimingModel &timing) const;
    std::array<WriteSite, workload::kChTableCount>
    resolveWrites(const format::BandwidthModel &bw,
                  const dram::BatchTimingModel &timing) const;

    AccessSite site(workload::ChTable t,
                    std::initializer_list<std::string_view> columns)
        const;
    AccessSite readSite(workload::ChTable t,
                        std::initializer_list<std::string_view> columns,
                        const format::BandwidthModel &bw,
                        const dram::BatchTimingModel &timing) const;
    WriteSite writeSite(workload::ChTable t,
                        const format::BandwidthModel &bw,
                        const dram::BatchTimingModel &timing) const;

    void applyPayment(const TxnDescriptor &d);
    void applyNewOrder(const TxnDescriptor &d);

    /**
     * Functional read of the newest version into the scratch row +
     * cost accounting. Returns the row's canonical bytes.
     */
    std::span<std::uint8_t> readRow(const AccessSite &site, RowId row);

    /** Create a new version of @p row with the bytes in @p data. */
    void updateRow(workload::ChTable t, RowId row,
                   std::span<const std::uint8_t> data, Timestamp ts);

    /**
     * Insert a fresh row (appends to the data-region tail) whose
     * site columns hold @p values, in site order; other bytes zero.
     */
    RowId insertRow(const AccessSite &site,
                    std::initializer_list<std::int64_t> values,
                    Timestamp ts);

    /** Charge the primary-key lookup that resolved @p row. */
    void chargeIndex(const TxnRow &row);
    void commit(std::uint64_t dirtied_lines);

    Database &db_;
    InstanceFormat fmt_;
    Rng rng_;
    TxnStats stats_;
    // Resolved at construction (after db_ and fmt_), then only read.
    const Sites sites_;
    const std::array<WriteSite, workload::kChTableCount> writes_;
    /** One canonical row of the widest table. */
    std::vector<std::uint8_t> scratch_;
};

} // namespace pushtap::txn
