/**
 * @file
 * Fig. 11(a): OLTP execution time with and without defragmentation
 * and the defragmentation overhead on OLTP (paper: < 1.5%).
 *
 * Fig. 11(b): overhead on OLAP of (i) fragmentation — the cumulative
 * query slowdown when defragmentation is skipped — and (ii) periodic
 * defragmentation, across transaction counts. Fragmentation grows
 * with the delta region while the defragmentation overhead amortises
 * its fixed (thread creation + PIM activation) cost, so the curves
 * cross; the paper observes the crossover around 10k transactions
 * (2.05x) and sets the policy there.
 *
 * Fixed overheads scale with the 1/1000 population so proportions
 * match the paper's full-scale run.
 */

#include <cstdio>
#include <vector>

#include "common/table_printer.hpp"
#include "htap/pushtap_db.hpp"

using namespace pushtap;

namespace {

constexpr double kScale = 0.001;

htap::PushtapOptions
baseOptions()
{
    htap::PushtapOptions opts;
    opts.database.scale = kScale;
    opts.database.deltaFraction = 4.0;
    opts.database.insertHeadroom = 2.0;
    opts.olap.snapshotFixedNs *= kScale;
    opts.olap.defragFixedNs *= kScale;
    return opts;
}

} // namespace

int
main()
{
    // ---- Fig. 11(a): OLTP with / without defragmentation ----------
    std::printf("Fig. 11(a): OLTP time w/ and w/o defragmentation "
                "(scale 1/1000; paper interval 10k txns -> 10)\n\n");
    TablePrinter ta({"txns (paper)", "w/o defrag (ms)",
                     "with defrag (ms)", "defrag overhead",
                     "paper"});
    for (std::uint64_t paper_txns :
         {2'000'000ull, 4'000'000ull, 8'000'000ull}) {
        const auto txns = static_cast<std::uint64_t>(
            static_cast<double>(paper_txns) * kScale);

        auto off = baseOptions();
        off.defragInterval = 0;
        htap::PushtapDB without(off);
        without.mixed(txns);
        const double t_without =
            without.oltp().stats().totalNs() / 1e6;

        auto on = baseOptions();
        on.defragInterval = 10; // paper's 10k, scaled
        htap::PushtapDB with(on);
        with.mixed(txns);
        const double t_with = (with.oltp().stats().totalNs() +
                               with.oltpDefragPauseNs()) /
                              1e6;
        const double overhead_pct =
            (with.oltpDefragPauseNs() /
             with.oltp().stats().totalNs()) *
            100.0;

        ta.addRow({std::to_string(paper_txns),
                   TablePrinter::num(t_without, 2),
                   TablePrinter::num(t_with, 2),
                   TablePrinter::num(overhead_pct, 2) + "%",
                   "<1.5%"});
    }
    ta.print();

    // ---- Fig. 11(b): fragmentation vs defragmentation overhead ----
    //
    // Both expressed as overhead percentages on the OLAP stream over
    // a window of N transactions with queries running back to back:
    //  - fragmentation%: average per-query slowdown when the delta
    //    is never cleaned (grows with N);
    //  - defragmentation%: one defragmentation pass per window over
    //    the window's query time (fixed cost amortises as N grows).
    std::printf("\nFig. 11(b): OLAP overhead, fragmentation vs "
                "defragmentation\n\n");
    TablePrinter tb({"txns (paper)", "fragmentation", "defrag",
                     "frag/defrag"});
    double prev_ratio = 0.0;
    std::uint64_t crossover = 0;
    for (std::uint64_t paper_txns :
         {1'000ull, 4'000ull, 10'000ull, 40'000ull, 100'000ull,
          400'000ull, 1'000'000ull, 4'000'000ull, 8'000'000ull}) {
        const auto txns = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(paper_txns) * kScale));

        auto opts = baseOptions();
        opts.defragInterval = 0;
        htap::PushtapDB db(opts);

        db.olap().prepareSnapshot(db.database().now());
        const auto clean =
            db.olap().runQuery(olap::plans::q6(0, 1LL << 60, 1, 10));
        const double clean_ns = clean.pimNs + clean.cpuNs;

        db.mixed(txns);
        db.olap().prepareSnapshot(db.database().now());
        const auto fragged =
            db.olap().runQuery(olap::plans::q6(0, 1LL << 60, 1, 10));
        const double frag_ns =
            fragged.pimNs + fragged.cpuNs - clean_ns;

        // Average degradation across the window's queries (the delta
        // grows linearly, so the mean is half the final slowdown).
        const double frag_pct = frag_ns / 2.0 / clean_ns * 100.0;

        // One defragmentation pass per window, amortised over the
        // wall time the window's transactions take.
        const double defrag_ns = db.olap().runDefragmentation(
            mvcc::DefragStrategy::Hybrid);
        const double window_ns = db.oltp().stats().totalNs();
        const double defrag_pct = defrag_ns / window_ns * 100.0;

        const double ratio =
            defrag_pct > 0.0 ? frag_pct / defrag_pct : 0.0;
        if (prev_ratio <= 1.0 && ratio > 1.0 && crossover == 0)
            crossover = paper_txns;
        prev_ratio = ratio;

        tb.addRow({std::to_string(paper_txns),
                   TablePrinter::num(frag_pct, 2) + "%",
                   TablePrinter::num(defrag_pct, 2) + "%",
                   TablePrinter::num(ratio, 2)});
    }
    tb.print();
    std::printf("\nmeasured crossover: fragmentation exceeds "
                "defragmentation beyond ~%llu txns (paper: ~10k, "
                "2.05x at the crossover)\n",
                static_cast<unsigned long long>(crossover));
    return 0;
}
