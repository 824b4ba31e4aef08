/**
 * @file
 * Fig. 10: OLTP/OLAP throughput frontier for PUSHtap vs the
 * multi-instance baseline.
 *
 * Calibration: per-transaction CPU cost and bus traffic come from a
 * functional engine run (they are per-transaction quantities,
 * independent of the population scale); the query-side costs are
 * priced analytically at the paper's full 60M-row ORDERLINE with the
 * same two-phase scan models the other benches use, so both sides of
 * the frontier live at the paper's scale.
 *
 * Paper reference: PUSHtap holds its peak 38.0k QphH flat until
 * 51.2 MtpmC; it reaches 3.4x MI's peak OLTP throughput and at MI's
 * peak (76.3 MtpmC) still delivers 4.4x the OLAP throughput.
 */

#include <algorithm>
#include <cstdio>

#include "common/table_printer.hpp"
#include "htap/frontier.hpp"
#include "htap/pushtap_db.hpp"
#include "memctrl/offload_costs.hpp"
#include "pim/two_phase.hpp"

using namespace pushtap;

namespace {

/** Full-scale Q6 profile: three ORDERLINE column scans. */
struct QueryProfile
{
    TimeNs pimNs = 0.0;
    TimeNs blockedNs = 0.0;
};

QueryProfile
fullScaleQ6()
{
    const auto geom = dram::Geometry::dimmDefault();
    const auto timing = dram::TimingParams::ddr5_3200();
    const pim::TwoPhaseModel model(
        pim::CostModel(pim::PimConfig::upmemLike()),
        memctrl::pushtapArchOverheads(geom, timing));
    const std::uint64_t rows = 60'000'000;
    QueryProfile q;
    for (const auto &[width, op] :
         {std::pair<std::uint32_t, pim::OpType>{8,
                                                pim::OpType::Filter},
          {2, pim::OpType::Filter},
          {8, pim::OpType::Aggregation}}) {
        const auto s = model.schedule(
            op, rows * width / geom.pimUnitCount(), width);
        q.pimNs += s.total();
        q.blockedNs += s.cpuBlockedTime;
    }
    return q;
}

} // namespace

int
main()
{
    // Per-transaction costs from the functional engine (transaction
    // work is scale-free) including the amortised defragmentation
    // pauses of the 10k policy.
    htap::PushtapOptions opts;
    opts.database.scale = 0.001;
    opts.database.deltaFraction = 4.0;
    opts.database.insertHeadroom = 2.0;
    opts.defragInterval = 10;
    opts.olap.defragFixedNs *= 0.001;
    htap::PushtapDB db(opts);
    db.mixed(2000);
    const auto &ts = db.oltp().stats();
    const double txns = static_cast<double>(ts.transactions);

    const dram::BatchTimingModel tm(dram::Geometry::dimmDefault(),
                                    dram::TimingParams::ddr5_3200());
    const auto q6 = fullScaleQ6();

    htap::FrontierProfile push;
    push.cores = 16;
    push.txnCpuNs = (ts.cpu.total() + db.oltpDefragPauseNs()) / txns;
    push.txnBusBytes = ts.memLines * 64.0 / txns;
    push.versionsPerTxn =
        static_cast<double>(ts.versionsCreated) / txns;
    push.queryPimNs = q6.pimNs;
    push.queryCpuBusBytes = 1024.0 * 8.0; // per-unit partial sums
    // LS phases lock only the banks being DMA-ed; with 16 ranks the
    // transaction stream dodges the locked rank almost always, so
    // the effective stall is the blocked time over the rank count.
    push.queryCpuBlockedNs = q6.blockedNs / 16.0;
    // Snapshot per version: metadata read + replicated bitmap words.
    push.consistencyBusBytesPerVersion = 16.0 + 8.0 * 8.0;
    push.consistencyBlocksOltp = false;
    push.busBandwidth = tm.cpuPeakBandwidth();

    htap::FrontierProfile mi = push;
    // MI has separate instances: queries never lock the row store's
    // banks, but every pending version must be rebuilt into the
    // column store before a fresh query: the row + metadata cross the
    // bus and the PIM units re-install them, and the rebuild occupies
    // the OLTP instance.
    mi.queryCpuBlockedNs = 0.0;
    mi.txnCpuNs = ts.cpu.total() / txns; // no defrag pauses
    // Rebuild reads each new-version row from the row-store instance
    // and installs it into ~21 column regions with line-granularity
    // read-modify-write traffic (2 x 64 B per column).
    mi.consistencyBusBytesPerVersion = 21.0 * 64.0 * 2.0;
    mi.consistencyPimNsPerVersion =
        2.0 * 130.0 /
        tm.pimAggregateBandwidth(Bandwidth::gbPerSec(1.0))
            .bytesPerNs();
    mi.consistencyBlocksOltp = true;

    const htap::FrontierModel push_model(push);
    const htap::FrontierModel mi_model(mi);

    std::printf("Fig. 10: throughput frontier (full-scale query "
                "profile)\n\n");
    TablePrinter tp({"system", "OLTP (MtpmC)", "OLAP (kQphH)"});
    double push_peak_oltp = 0.0, mi_peak_oltp = 0.0;
    double push_peak_olap = 0.0;
    for (const auto &pt : push_model.sweep(12)) {
        tp.addRow({"PUSHtap",
                   TablePrinter::num(pt.oltpTpmC / 1e6, 1),
                   TablePrinter::num(pt.olapQphH / 1e3, 1)});
        push_peak_oltp = std::max(push_peak_oltp, pt.oltpTpmC);
        push_peak_olap = std::max(push_peak_olap, pt.olapQphH);
    }
    for (const auto &pt : mi_model.sweep(12)) {
        tp.addRow({"MI", TablePrinter::num(pt.oltpTpmC / 1e6, 1),
                   TablePrinter::num(pt.olapQphH / 1e3, 1)});
        mi_peak_oltp = std::max(mi_peak_oltp, pt.oltpTpmC);
    }
    tp.print();

    const double mi_peak_rate = mi_peak_oltp / 60.0;
    const auto push_at_mi_peak = push_model.evaluate(mi_peak_rate);
    const auto mi_at_mi_peak = mi_model.evaluate(mi_peak_rate);

    std::printf("\npeak OLTP: PUSHtap %.1f MtpmC vs MI %.1f MtpmC "
                "(%.1fx; paper 3.4x)\n",
                push_peak_oltp / 1e6, mi_peak_oltp / 1e6,
                push_peak_oltp / mi_peak_oltp);
    std::printf("OLAP at MI's peak OLTP (%.1f MtpmC): PUSHtap %.1f "
                "kQphH vs MI %.1f kQphH (%.1fx; paper 4.4x)\n",
                mi_peak_oltp / 1e6, push_at_mi_peak.olapQphH / 1e3,
                mi_at_mi_peak.olapQphH / 1e3,
                mi_at_mi_peak.olapQphH > 0.0
                    ? push_at_mi_peak.olapQphH /
                          mi_at_mi_peak.olapQphH
                    : 0.0);
    std::printf("peak OLAP: PUSHtap %.1f kQphH, flat until the bus "
                "saturates (paper 38.0 kQphH until 51.2 MtpmC)\n",
                push_peak_olap / 1e3);
    return 0;
}
