#pragma once

/**
 * @file
 * PushtapDB: the public facade of the library. One object owns the
 * single-instance database, the OLTP engine (CPU, TPC-C) and the OLAP
 * engine (PIM, CH queries), wired the way section 6.3 describes:
 * commits flush rows to DRAM for freshness, analytical queries
 * snapshot first, and defragmentation runs every N transactions
 * (N = 10k per section 7.4).
 *
 * Analytical queries run through runQuery(): any logical plan
 * (olap/plan.hpp), or a CH query number with an executable catalog
 * plan (workload/query_catalog.hpp).
 *
 * Quickstart:
 * @code
 *   htap::PushtapDB db;                       // default small scale
 *   db.mixed(1000);                           // run transactions
 *   olap::QueryResult q6;                     // fresh analytics
 *   auto rep = db.runQuery(olap::plans::q6(lo, hi, 1, 10), &q6);
 *   std::int64_t revenue = q6.rows[0].aggs[0];
 *   olap::QueryResult q12;
 *   db.runQuery(12, &q12);                    // catalog plan
 * @endcode
 *
 * Parallel execution: by default (opts.olap.workers = 0) every query
 * phase, snapshot and defragmentation pass runs on a pool with one
 * worker per hardware thread, whose workers claim morsel-aligned
 * scan runs dynamically. Answers and the modelled decomposition are
 * byte-identical for every worker count; only host wall-clock
 * changes.
 * @code
 *   htap::PushtapOptions opts;
 *   opts.olap.workers = 1;                    // run on this thread
 *   htap::PushtapDB serial(opts);
 * @endcode
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "olap/olap_engine.hpp"
#include "txn/database.hpp"
#include "txn/tpcc_engine.hpp"

namespace pushtap::htap {

struct PushtapOptions
{
    txn::DatabaseConfig database;
    olap::OlapConfig olap = olap::OlapConfig::pushtapDimm();
    txn::InstanceFormat format = txn::InstanceFormat::Unified;
    /** Defragment every this many transactions (section 7.4). */
    std::uint64_t defragInterval = 10'000;
    std::uint64_t txnSeed = 7;
};

class PushtapDB
{
  public:
    explicit PushtapDB(const PushtapOptions &opts = {});

    txn::Database &database() { return *db_; }
    const txn::Database &database() const { return *db_; }
    txn::TpccEngine &oltp() { return *oltp_; }
    olap::OlapEngine &olap() { return *olap_; }
    const PushtapOptions &options() const { return opts_; }

    /** Run @p n Payment transactions. */
    void payments(std::uint64_t n);

    /** Run @p n New-Order transactions. */
    void newOrders(std::uint64_t n);

    /** Run @p n transactions of the 50/50 mix. */
    void mixed(std::uint64_t n);

    /**
     * Fresh analytical query: snapshot at the current commit
     * timestamp first, then execute @p plan through the operator
     * pipeline. Data freshness is exact: every committed transaction
     * is visible. With opts.olap.resultCache on, repeated plans may
     * be served from the frontier-keyed result cache — freshness is
     * unaffected, because any commit, snapshot flip or
     * defragmentation move since the cached run changes the frontier
     * vector and forces re-execution; a served answer is always
     * byte-identical to a cold run at the current snapshot
     * (QueryReport::cacheHit / incrementalRows record the path).
     */
    olap::QueryReport runQuery(const olap::QueryPlan &plan,
                               olap::QueryResult *result = nullptr);

    /**
     * Run the catalog plan of CH query @p ch_query_no (fatal outside
     * Q1..Q22).
     */
    olap::QueryReport runQuery(int ch_query_no,
                               olap::QueryResult *result = nullptr);

    /**
     * EXPLAIN: snapshot at the current commit timestamp, run the
     * adaptive optimizer over @p plan (regardless of the configured
     * `optimize` flag — this only describes, it never executes) and
     * return the describePlan() dump of the chosen physical plan and
     * decision record.
     */
    std::string explainQuery(const olap::QueryPlan &plan);

    /** EXPLAIN the catalog plan of CH query @p ch_query_no. */
    std::string explainQuery(int ch_query_no);

    /** Force a defragmentation pass now. */
    TimeNs defragment();

    /** Total time OLTP has been paused by defragmentation. */
    TimeNs oltpDefragPauseNs() const { return defragPauseNs_; }

    std::uint64_t transactionsSinceDefrag() const
    {
        return sinceDefrag_;
    }

  private:
    void maybeDefrag();

    /**
     * The one defragmentation path (automatic and forced): the pass
     * time is charged to the OLTP pause only — the next query pays
     * its snapshot through the engine's pending-consistency charge,
     * never the defragmentation itself — and the interval counter
     * resets, so a forced pass cannot double-count with the
     * automatic one.
     */
    TimeNs runDefragPass();

    PushtapOptions opts_;
    std::unique_ptr<txn::Database> db_;
    std::unique_ptr<format::BandwidthModel> bw_;
    std::unique_ptr<dram::BatchTimingModel> timing_;
    std::unique_ptr<txn::TpccEngine> oltp_;
    std::unique_ptr<olap::OlapEngine> olap_;
    std::uint64_t sinceDefrag_ = 0;
    TimeNs defragPauseNs_ = 0.0;
};

} // namespace pushtap::htap
