/**
 * @file
 * Table 1 reproduction: print the system configuration the library
 * instantiates for the DIMM-based default system and the HBM-based
 * comparison system.
 */

#include <cstdio>

#include "common/table_printer.hpp"
#include "dram/geometry.hpp"
#include "dram/timing_model.hpp"
#include "dram/timing_params.hpp"
#include "pim/pim_config.hpp"

using namespace pushtap;

namespace {

void
printSystem(const char *title, const dram::Geometry &g,
            const dram::TimingParams &t, const pim::PimConfig &p)
{
    std::printf("== %s ==\n", title);
    TablePrinter tp({"parameter", "value"});
    tp.addRow({"DRAM", t.name});
    tp.addRow({"channels", std::to_string(g.channels)});
    tp.addRow({"ranks/channel", std::to_string(g.ranksPerChannel)});
    tp.addRow({"devices/rank", std::to_string(g.devicesPerRank)});
    tp.addRow({"banks/device", std::to_string(g.banksPerDevice)});
    tp.addRow({"rows/bank", std::to_string(g.rowsPerBank)});
    tp.addRow({"columns/row (B)", std::to_string(g.columnsPerRow)});
    tp.addRow({"interleave granularity (B)",
               std::to_string(g.interleaveGranularity)});
    tp.addRow({"capacity/rank (GiB)",
               std::to_string(g.bytesPerRank() >> 30)});
    tp.addRow({"tBURST/tRCD/tCL/tRP (ns)",
               TablePrinter::num(t.tBURST, 2) + " / " +
                   TablePrinter::num(t.tRCD, 2) + " / " +
                   TablePrinter::num(t.tCL, 2) + " / " +
                   TablePrinter::num(t.tRP, 2)});
    tp.addRow({"tRAS/tRRD (ns)", TablePrinter::num(t.tRAS, 2) +
                                     " / " +
                                     TablePrinter::num(t.tRRD, 2)});
    tp.addRow({"tRFC/tREFI (ns)", TablePrinter::num(t.tRFC, 1) +
                                      " / " +
                                      TablePrinter::num(t.tREFI, 1)});
    tp.addRow({"tWR/tWTR/tRTP (ns)",
               TablePrinter::num(t.tWR, 2) + " / " +
                   TablePrinter::num(t.tWTR, 2) + " / " +
                   TablePrinter::num(t.tRTP, 2)});
    tp.addRow({"PIM units (total)",
               std::to_string(g.pimUnitCount())});
    tp.addRow({"PIM units/rank",
               std::to_string(g.banksPerRank())});
    tp.addRow({"PIM freq (MHz)",
               TablePrinter::num(p.frequencyMHz, 0)});
    tp.addRow({"tasklets", std::to_string(p.tasklets)});
    tp.addRow({"WRAM (kB)", std::to_string(p.wramBytes / 1024)});
    tp.addRow({"PIM-DRAM wire (bit)", std::to_string(p.wireBits)});
    tp.addRow(
        {"PIM unit bandwidth (GB/s)",
         TablePrinter::num(p.streamBandwidth.gbPerSecValue(), 1)});

    const dram::BatchTimingModel tm(g, t);
    tp.addRow({"CPU peak bandwidth (GB/s)",
               TablePrinter::num(tm.cpuPeakBandwidth()
                                     .gbPerSecValue(),
                                 1)});
    tp.addRow(
        {"PIM aggregate bandwidth (GB/s)",
         TablePrinter::num(
             tm.pimAggregateBandwidth(p.streamBandwidth)
                 .gbPerSecValue(),
             1)});
    tp.print();
    std::printf("\n");
}

} // namespace

int
main()
{
    std::printf("PUSHtap Table 1: system configuration\n\n");
    printSystem("DIMM-based system (default)",
                dram::Geometry::dimmDefault(),
                dram::TimingParams::ddr5_3200(),
                pim::PimConfig::upmemLike());
    printSystem("HBM-based system (comparison)",
                dram::Geometry::hbmDefault(),
                dram::TimingParams::hbm3(),
                pim::PimConfig::hbmVariant());
    return 0;
}
