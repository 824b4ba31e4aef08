/**
 * @file
 * Fig. 9(a): OLTP transaction execution time under the three storage
 * formats — row store (the OLTP ideal), column store, and PUSHtap's
 * unified format — plus the HBM-based variant of the unified format.
 *
 * Paper reference: CS +28.1% and PUSHtap +3.5% over RS; PUSHtap(HBM)
 * gains merely 2.5% over the DIMM system.
 *
 * A second section measures the concurrent OLTP front end: the same
 * mixed TPC-C stream drained by a TxnWorkerGroup at 1/2/4/hw worker
 * threads (fresh database per point, scale 1/100 so the schedule
 * spans two warehouses, and so two home-warehouse partitions). Host
 * wall-clock of the whole batch is recorded per worker count along
 * with the modelled per-transaction time, which is worker-invariant
 * because the schedule is deterministic. Results are written to
 * BENCH_fig9a.json (machine-readable; CI archives it on every run so
 * the thread-scaling trajectory across PRs can be recorded).
 */

#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/table_printer.hpp"
#include "common/worker_pool.hpp"
#include "txn/tpcc_engine.hpp"
#include "txn/txn_worker_group.hpp"

using namespace pushtap;

namespace {

/** One row of the JSON report. */
struct JsonRow
{
    std::string section; ///< "format" or "scaling".
    std::string system;
    double avgTxnNs = 0.0;     ///< Modelled per-transaction time.
    std::uint32_t workers = 0; ///< Scaling section only.
    std::uint64_t txns = 0;
    double hostNs = 0.0;       ///< Wall-clock of the whole batch.
};

/** Host wall-clock of one fn() call, in nanoseconds. */
template <typename Fn>
double
wallOnce(Fn &&fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
}

double
runFormat(txn::InstanceFormat fmt, const format::BandwidthModel &bw,
          const dram::BatchTimingModel &timing, int txns)
{
    txn::DatabaseConfig cfg;
    cfg.scale = 0.001;
    txn::Database db(cfg);
    txn::TpccEngine engine(db, fmt, bw, timing, 99);
    for (int i = 0; i < txns; ++i)
        engine.executeMixed();
    return engine.stats().avgTxnNs();
}

} // namespace

int
main()
{
    const int txns = 2000;
    const format::BandwidthModel dimm_bw(8, 8, true);
    const dram::BatchTimingModel dimm(
        dram::Geometry::dimmDefault(),
        dram::TimingParams::ddr5_3200());
    const format::BandwidthModel hbm_bw(8, 64, false);
    const dram::BatchTimingModel hbm(dram::Geometry::hbmDefault(),
                                     dram::TimingParams::hbm3());
    std::vector<JsonRow> json;

    const double rs =
        runFormat(txn::InstanceFormat::RowStore, dimm_bw, dimm, txns);
    const double cs = runFormat(txn::InstanceFormat::ColumnStore,
                                dimm_bw, dimm, txns);
    const double unified =
        runFormat(txn::InstanceFormat::Unified, dimm_bw, dimm, txns);
    const double unified_hbm =
        runFormat(txn::InstanceFormat::Unified, hbm_bw, hbm, txns);

    std::printf("Fig. 9(a): transaction execution time by format "
                "(%d mixed TPC-C txns, scale 1/1000)\n\n",
                txns);
    TablePrinter tp(
        {"format", "avg txn (ns)", "vs RS", "paper vs RS"});
    auto rel = [&](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%+.1f%%",
                      (v / rs - 1.0) * 100.0);
        return std::string(buf);
    };
    tp.addRow({"RS (ideal)", TablePrinter::num(rs, 0), "+0.0%",
               "+0.0%"});
    tp.addRow({"CS", TablePrinter::num(cs, 0), rel(cs), "+28.1%"});
    tp.addRow({"PUSHtap", TablePrinter::num(unified, 0),
               rel(unified), "+3.5%"});
    tp.addRow({"PUSHtap (HBM)", TablePrinter::num(unified_hbm, 0),
               rel(unified_hbm), "-2.5% (2.5% speedup)"});
    tp.print();
    json.push_back({"format", "RS", rs});
    json.push_back({"format", "CS", cs});
    json.push_back({"format", "PUSHtap", unified});
    json.push_back({"format", "PUSHtap (HBM)", unified_hbm});

    // Worker scaling of the concurrent front end. The schedule (and
    // therefore the modelled time and every row value) is identical
    // at any worker count; only host wall-clock changes.
    const std::uint32_t hw = WorkerPool::hardwareWorkers();
    std::vector<std::uint32_t> axis = {1, 2, 4};
    if (hw != 1 && hw != 2 && hw != 4)
        axis.push_back(hw);
    constexpr std::uint64_t kScaleTxns = 2000;
    std::printf("\nConcurrent OLTP worker scaling "
                "(%llu mixed txns, scale 1/100, %u hardware "
                "threads on this host)\n\n",
                static_cast<unsigned long long>(kScaleTxns), hw);
    TablePrinter zp({"workers", "host (ms)", "txns/s (host)",
                     "speedup vs 1", "avg txn (ns, modelled)"});
    double base_host = 0.0;
    for (const std::uint32_t workers : axis) {
        txn::DatabaseConfig cfg;
        cfg.scale = 0.01; // Two warehouses, twenty districts.
        double avg_txn = 0.0;
        double host = std::numeric_limits<double>::infinity();
        // Fresh database per repetition (the batch mutates it), but
        // only the batch itself — schedule generation plus drain —
        // is inside the timed region.
        for (int rep = 0; rep < 3; ++rep) {
            txn::Database db(cfg);
            txn::TxnWorkerGroupOptions opts;
            opts.workers = workers;
            txn::TxnWorkerGroup group(db,
                                      txn::InstanceFormat::Unified,
                                      dimm_bw, dimm, opts);
            host = std::min(host, wallOnce([&] {
                                group.run(kScaleTxns);
                            }));
            avg_txn = group.stats().avgTxnNs();
        }
        if (workers == 1)
            base_host = host;
        zp.addRow({std::to_string(workers),
                   TablePrinter::num(host / 1e6, 1),
                   TablePrinter::num(static_cast<double>(kScaleTxns) /
                                         (host / 1e9),
                                     0),
                   TablePrinter::num(base_host / host, 2) + "x",
                   TablePrinter::num(avg_txn, 0)});
        JsonRow row;
        row.section = "scaling";
        row.system = "PUSHtap";
        row.avgTxnNs = avg_txn;
        row.workers = workers;
        row.txns = kScaleTxns;
        row.hostNs = host;
        json.push_back(row);
    }
    zp.print();
    std::printf("\n(host time includes schedule generation; "
                "speedups are bounded by this host's %u hardware "
                "threads and by the schedule's two warehouses, "
                "which drain on at most two workers)\n",
                hw);

    std::FILE *f = std::fopen("BENCH_fig9a.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_fig9a.json\n");
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"figure\": \"fig9a\",\n"
                 "  \"format_scale\": 0.001,\n"
                 "  \"scaling_scale\": 0.01,\n"
                 "  \"hardware_threads\": %u,\n  \"rows\": [\n",
                 hw);
    for (std::size_t i = 0; i < json.size(); ++i) {
        const auto &r = json[i];
        std::fprintf(
            f,
            "    {\"section\": \"%s\", \"system\": \"%s\", "
            "\"avg_txn_ns\": %.1f, \"workers\": %u, "
            "\"txns\": %llu, \"host_ns\": %.0f}%s\n",
            r.section.c_str(), r.system.c_str(), r.avgTxnNs,
            r.workers, static_cast<unsigned long long>(r.txns),
            r.hostNs, i + 1 < json.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_fig9a.json (%zu rows)\n",
                json.size());
    return 0;
}
