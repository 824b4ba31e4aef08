/**
 * @file
 * Mixed-workload scenario: a retail operator runs a continuous
 * Payment / New-Order stream while an analyst fires the three CH
 * queries the paper evaluates (Q1 pricing summary, Q6 revenue
 * selection, Q9 product-profit join). Demonstrates the three HTAP
 * design goals on one instance:
 *
 *  - workload-specific performance (PIM scans vs CPU transactions),
 *  - performance isolation (CPU is blocked only during short LS
 *    phases),
 *  - data freshness (every query sees all committed transactions).
 *
 * After the rounds, the full executable CH suite — all 22 queries
 * since the expression IR landed — runs end-to-end through the plan
 * pipeline, and Q17 (the scalar-subquery small-quantity query) is
 * unpacked as a worked long-tail example.
 *
 * Usage: htap_mixed_workload [rounds]    (default 5)
 */

#include <cstdio>
#include <cstdlib>

#include "htap/pushtap_db.hpp"
#include "workload/query_catalog.hpp"

using namespace pushtap;

int
main(int argc, char **argv)
{
    const int rounds = argc > 1 ? std::atoi(argv[1]) : 5;

    htap::PushtapOptions opts;
    opts.database.scale = 0.001;
    opts.database.deltaFraction = 4.0;
    opts.database.insertHeadroom = 2.0;
    opts.defragInterval = 10;
    htap::PushtapDB db(opts);

    std::printf("round | txns | Q1 grps | Q6 revenue | Q9 matches | "
                "query ms (PIM/CPU/cons) | OLTP blocked us\n");
    std::int64_t last_revenue = 0;
    for (int r = 0; r < rounds; ++r) {
        db.mixed(100);

        olap::QueryResult q1rows, q6rows, q9rows;
        const auto q1 =
            db.runQuery(olap::plans::q1(workload::kDateBase), &q1rows);
        const auto q6 =
            db.runQuery(olap::plans::q6(0, 1LL << 60, 1, 10), &q6rows);
        const std::int64_t revenue = q6rows.rows[0].aggs[0];
        const auto q9 = db.runQuery(olap::plans::q9(), &q9rows);
        std::uint64_t matches = 0;
        for (const auto &row : q9rows.rows)
            matches += row.count;

        const double total_ms =
            (q1.totalNs() + q6.totalNs() + q9.totalNs()) / 1e6;
        const double pim_ms =
            (q1.pimNs + q6.pimNs + q9.pimNs) / 1e6;
        const double cpu_ms =
            (q1.cpuNs + q6.cpuNs + q9.cpuNs) / 1e6;
        const double cons_ms = (q1.consistencyNs +
                                q6.consistencyNs +
                                q9.consistencyNs) /
                               1e6;
        const double blocked_us = (q1.cpuBlockedNs +
                                   q6.cpuBlockedNs +
                                   q9.cpuBlockedNs) /
                                  1e3;

        std::printf("%5d | %4llu | %7zu | %10lld | %10llu | "
                    "%4.2f (%4.2f/%4.2f/%4.2f) | %8.1f\n",
                    r,
                    static_cast<unsigned long long>(
                        db.oltp().stats().transactions),
                    q1rows.rows.size(), static_cast<long long>(revenue),
                    static_cast<unsigned long long>(matches),
                    total_ms, pim_ms, cpu_ms, cons_ms, blocked_us);

        if (r > 0 && revenue <= last_revenue)
            std::printf("  !! freshness violation: revenue did not "
                        "grow\n");
        last_revenue = revenue;
    }

    std::printf("\nexecutable CH suite through "
                "PushtapDB::runQuery:\n");
    std::printf("query | result rows | first row count | "
                "total ms (PIM/CPU/cons)\n");
    for (const auto &q : workload::chExecutablePlans()) {
        olap::QueryResult res;
        const auto rep = db.runQuery(q.plan, &res);
        std::printf("%5s | %11zu | %15llu | %5.2f "
                    "(%4.2f/%4.2f/%4.2f)\n",
                    rep.name.c_str(), res.rows.size(),
                    static_cast<unsigned long long>(
                        res.rows.empty() ? 0
                                         : res.rows.front().count),
                    rep.totalNs() / 1e6, rep.pimNs / 1e6,
                    rep.cpuNs / 1e6, rep.consistencyNs / 1e6);
    }

    // One long-tail query unpacked: Q17 filters each order line
    // against a per-item threshold — qty < 0.2 * AVG(qty) over that
    // item's lines — which the engine runs as a scalar-subquery
    // pre-pass (SUM and COUNT per ol_i_id materialized into a
    // lookup) feeding the integer-exact probe filter
    // `5 * qty * count < sum`, then a semi join against the
    // ORIGINAL items.
    {
        olap::QueryResult res;
        const auto rep = db.runQuery(*workload::executableQueryPlan(17),
                                     &res);
        std::printf("\nQ17 (small-quantity orders, subquery "
                    "threshold): %llu qualifying lines, revenue "
                    "%lld, %.2f ms modelled\n",
                    static_cast<unsigned long long>(
                        res.rows.front().count),
                    static_cast<long long>(res.rows.front().aggs[0]),
                    rep.totalNs() / 1e6);
    }

    // EXPLAIN the Q9 join chain: the hand-built plan runQuery
    // executes and prices operator by operator.
    std::printf("\nhand-built Q9 plan:\n%s", db.explainQuery(9).c_str());

    std::printf("\nOLTP totals: %llu txns, avg %.0f ns; defrag "
                "pauses %.2f ms total\n",
                static_cast<unsigned long long>(
                    db.oltp().stats().transactions),
                db.oltp().stats().avgTxnNs(),
                db.oltpDefragPauseNs() / 1e6);
    std::printf("performance isolation: queries blocked the CPU for "
                "microseconds per round, not for their full "
                "duration.\n");
    return 0;
}
