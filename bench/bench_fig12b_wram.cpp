/**
 * @file
 * Fig. 12(b): Q6 execution time across WRAM sizes for the original
 * general-purpose PIM architecture (software launch/poll of every
 * unit) vs the PUSHtap extended controller (scheduler + polling
 * module). Both use the two-phase execution of section 6.2; only the
 * communication overheads differ.
 *
 * Paper reference: the original architecture speeds up 6.4x from
 * 16 kB to 256 kB WRAM as the mode-switch share falls from 88.8% to
 * 35.3%; PUSHtap's share stays ~7.0% and it is 3.0x faster at the
 * default 64 kB.
 */

#include <cstdio>
#include <vector>

#include "common/table_printer.hpp"
#include "memctrl/offload_costs.hpp"
#include "pim/two_phase.hpp"
#include "workload/ch_schema.hpp"

using namespace pushtap;

namespace {

struct ArchResult
{
    TimeNs totalNs;
    double overheadFraction;
};

ArchResult
q6Time(Bytes wram_bytes, bool pushtap_arch)
{
    const auto geom = dram::Geometry::dimmDefault();
    const auto timing = dram::TimingParams::ddr5_3200();
    auto cfg = pim::PimConfig::upmemLike();
    cfg.wramBytes = wram_bytes;
    const auto ov = pushtap_arch
                        ? memctrl::pushtapArchOverheads(geom, timing)
                        : memctrl::originalArchOverheads(geom);
    const pim::TwoPhaseModel model(pim::CostModel(cfg), ov);

    // Q6 scans three ORDERLINE columns at the paper's full scale.
    const std::uint64_t rows = 60'000'000;
    const std::uint32_t units = geom.pimUnitCount();
    ArchResult res{0.0, 0.0};
    TimeNs overhead = 0.0;
    for (const auto &[width, op] :
         {std::pair<std::uint32_t, pim::OpType>{8,
                                                pim::OpType::Filter},
          {2, pim::OpType::Filter},
          {8, pim::OpType::Aggregation}}) {
        const Bytes per_unit = rows * width / units;
        const auto s = model.schedule(op, per_unit, width);
        res.totalNs += s.total();
        overhead += s.offloadOverhead;
    }
    res.overheadFraction = overhead / res.totalNs;
    return res;
}

} // namespace

int
main()
{
    std::printf("Fig. 12(b): Q6 time vs WRAM size, original PIM "
                "architecture vs PUSHtap controller\n\n");
    TablePrinter tp({"WRAM (kB)", "original (ms)",
                     "orig switch share", "PUSHtap (ms)",
                     "PUSHtap switch share", "speedup"});
    ArchResult orig16{}, orig256{};
    ArchResult push64{}, orig64{};
    for (Bytes kb : {16u, 32u, 64u, 128u, 256u}) {
        const auto orig = q6Time(kb * 1024, false);
        const auto push = q6Time(kb * 1024, true);
        if (kb == 16)
            orig16 = orig;
        if (kb == 256)
            orig256 = orig;
        if (kb == 64) {
            push64 = push;
            orig64 = orig;
        }
        tp.addRow({std::to_string(kb),
                   TablePrinter::num(orig.totalNs / 1e6, 2),
                   TablePrinter::num(
                       orig.overheadFraction * 100.0, 1) +
                       "%",
                   TablePrinter::num(push.totalNs / 1e6, 2),
                   TablePrinter::num(
                       push.overheadFraction * 100.0, 1) +
                       "%",
                   TablePrinter::num(orig.totalNs / push.totalNs,
                                     2) +
                       "x"});
    }
    tp.print();

    std::printf("\noriginal 16->256 kB speedup: %.1fx (paper 6.4x); "
                "switch share %.1f%% -> %.1f%% (paper 88.8%% -> "
                "35.3%%)\n",
                orig16.totalNs / orig256.totalNs,
                orig16.overheadFraction * 100.0,
                orig256.overheadFraction * 100.0);
    std::printf("PUSHtap speedup at 64 kB: %.1fx (paper 3.0x); "
                "PUSHtap switch share %.1f%% (paper ~7.0%%)\n",
                orig64.totalNs / push64.totalNs,
                push64.overheadFraction * 100.0);
    return 0;
}
