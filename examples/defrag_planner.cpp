/**
 * @file
 * Defragmentation planner: given a table's schema and update profile,
 * report which data-movement strategy (CPU copy vs PIM copy,
 * section 5.3) wins, the Eq. (3) crossover, and what an actual
 * defragmentation pass costs. This is the operator-facing view of
 * the hybrid policy PUSHtap applies automatically.
 *
 * Usage: defrag_planner [updates_per_row]   (default 2)
 */

#include <cstdio>
#include <cstdlib>

#include "common/table_printer.hpp"
#include "dram/timing_model.hpp"
#include "format/generators.hpp"
#include "mvcc/defragmenter.hpp"
#include "mvcc/snapshotter.hpp"
#include "workload/ch_gen.hpp"
#include "workload/query_catalog.hpp"

using namespace pushtap;

int
main(int argc, char **argv)
{
    const int updates_per_row =
        argc > 1 ? std::atoi(argv[1]) : 2;

    const dram::BatchTimingModel tm(dram::Geometry::dimmDefault(),
                                    dram::TimingParams::ddr5_3200());
    const auto cpu_bw = tm.cpuPeakBandwidth();
    const auto pim_bw =
        tm.pimAggregateBandwidth(Bandwidth::gbPerSec(1.0));
    const mvcc::Defragmenter planner(cpu_bw, pim_bw, 8);

    std::printf("defragmentation planner (CPU %.0f GB/s, PIM "
                "aggregate %.0f GB/s, m = %u B)\n",
                cpu_bw.gbPerSecValue(), pim_bw.gbPerSecValue(),
                static_cast<unsigned>(mvcc::kMetadataBytes));
    std::printf("Eq. (3) crossover at p = 1: w* = %.1f B/device\n\n",
                planner.crossoverWidth(1.0));

    auto schemas = workload::chBenchmarkSchemas();
    workload::markKeyColumns(schemas, 22);

    TablePrinter tp({"table", "w (B/dev)", "n (rows)",
                     "comm CPU (us)", "comm PIM (us)", "choice"});
    const double p = 1.0 / updates_per_row;
    for (const auto &schema : schemas) {
        const auto layout = format::compactAligned(schema, 8, 0.6);
        const auto w = std::max<std::uint32_t>(
            1, (layout.paddedRowBytes() + 7) / 8);
        const std::uint64_t n = 100'000; // delta rows to clean
        const auto c = planner.commCpu(n, p, w);
        const auto q = planner.commPim(n, p, w);
        tp.addRow({schema.name(), std::to_string(w),
                   std::to_string(n), TablePrinter::num(c / 1e3, 1),
                   TablePrinter::num(q / 1e3, 1),
                   mvcc::defragStrategyName(
                       planner.pickStrategy(w, p))});
    }
    tp.print();

    // A functional pass on a real store for the widest table.
    std::printf("\nfunctional pass on CUSTOMER (%d update(s) per "
                "row, 4096 rows):\n",
                updates_per_row);
    auto schema =
        schemas[static_cast<std::size_t>(workload::ChTable::Customer)];
    const auto layout = format::compactAligned(schema, 8, 0.6);
    const format::BlockCirculant circ(8, 1024);
    storage::TableStore store(layout, circ, 4096, 4096);
    mvcc::VersionManager vm(circ, 1 << 22, 4096);
    workload::ChGenerator gen(1, 0.001);

    std::vector<std::uint8_t> row(schema.rowBytes());
    for (RowId r = 0; r < 4096; ++r) {
        gen.fillRow(workload::ChTable::Customer, schema, r, row);
        store.writeRow(storage::Region::Data, r, row);
    }
    Timestamp ts = 0;
    for (int u = 0; u < updates_per_row; ++u) {
        for (RowId r = 0; r < 4096; r += 2) {
            const auto slot = vm.allocDeltaSlot(r);
            store.writeRow(storage::Region::Delta, slot, row);
            vm.addVersion(r, slot, ++ts);
        }
    }
    const auto stats =
        planner.run(store, vm, mvcc::DefragStrategy::Hybrid);
    std::printf("  cleaned %llu delta rows (%llu copies, %llu chain "
                "hops) in %.1f us using %s\n",
                static_cast<unsigned long long>(stats.deltaRows),
                static_cast<unsigned long long>(stats.rowsCopied),
                static_cast<unsigned long long>(stats.chainSteps),
                stats.timeNs / 1e3,
                mvcc::defragStrategyName(stats.chosen));
    return 0;
}
