/**
 * @file
 * Quickstart: open a PUSHtap database, run a mixed TPC-C transaction
 * stream, and issue fresh analytical queries against the same single
 * instance — the core HTAP promise of the paper (Fig. 2(d)): no
 * replica, no rebuild, every committed transaction visible to the
 * next query.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "htap/pushtap_db.hpp"

using namespace pushtap;

int
main()
{
    // A laptop-friendly scale of the paper's 20 GB CH population
    // (row counts scale linearly; the timing model is analytic in
    // them, so relative behaviour is preserved).
    htap::PushtapOptions opts;
    opts.database.scale = 0.001;   // 60k ORDERLINE rows etc.
    opts.database.th = 0.6;        // the paper's chosen threshold
    opts.defragInterval = 10;      // paper: every 10k txns (scaled)
    htap::PushtapDB db(opts);

    std::printf("PUSHtap quickstart\n");
    std::printf("  tables populated, storage %.1f MiB "
                "(+%.1f KiB snapshot bitmaps)\n",
                static_cast<double>(db.database().storageBytes()) /
                    (1 << 20),
                static_cast<double>(db.database().snapshotBytes()) /
                    1024.0);

    // OLTP: a mixed Payment / New-Order stream.
    db.mixed(500);
    const auto &ts = db.oltp().stats();
    std::printf("\nran %llu transactions (%llu payments, %llu "
                "new-orders)\n",
                static_cast<unsigned long long>(ts.transactions),
                static_cast<unsigned long long>(ts.payments),
                static_cast<unsigned long long>(ts.newOrders));
    std::printf("  avg transaction: %.0f ns (%.1f%% memory time)\n",
                ts.avgTxnNs(),
                ts.memTimeNs / ts.totalNs() * 100.0);

    // OLAP: Q6 revenue query — snapshot happens automatically, so it
    // sees every transaction committed above.
    olap::QueryResult res;
    const auto q6 = db.runQuery(olap::plans::q6(0, 1LL << 60, 1, 10), &res);
    const std::int64_t revenue = res.rows[0].aggs[0];
    std::printf("\nQ6 revenue: %lld (visible rows: %llu)\n",
                static_cast<long long>(revenue),
                static_cast<unsigned long long>(q6.rowsVisible));
    std::printf("  modelled query time: %.2f ms (PIM %.2f ms, CPU "
                "%.2f ms, consistency %.2f ms)\n",
                q6.totalNs() / 1e6, q6.pimNs / 1e6, q6.cpuNs / 1e6,
                q6.consistencyNs / 1e6);

    // Freshness check: more orders, revenue grows.
    db.newOrders(20);
    db.runQuery(olap::plans::q6(0, 1LL << 60, 1, 10), &res);
    const std::int64_t revenue2 = res.rows[0].aggs[0];
    std::printf("\nafter 20 more new-orders, Q6 revenue: %lld "
                "(+%lld)\n",
                static_cast<long long>(revenue2),
                static_cast<long long>(revenue2 - revenue));
    std::printf("data freshness: every committed transaction is "
                "visible to the next query.\n");
    return 0;
}
