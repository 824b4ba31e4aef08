#include "mvcc/defragmenter.hpp"

#include <cstdint>
#include <limits>

#include "common/log.hpp"
#include "mvcc/epoch.hpp"

namespace pushtap::mvcc {

const char *
defragStrategyName(DefragStrategy s)
{
    switch (s) {
      case DefragStrategy::CpuOnly: return "cpu-only";
      case DefragStrategy::PimOnly: return "pim-only";
      case DefragStrategy::Hybrid: return "hybrid";
    }
    return "unknown";
}

TimeNs
Defragmenter::commCpu(std::uint64_t n, double p,
                      std::uint32_t w) const
{
    // Eq. (1): (m n + 2 n p d w) / bdw_cpu.
    const double mn =
        static_cast<double>(kMetadataBytes) * static_cast<double>(n);
    const double move = 2.0 * static_cast<double>(n) * p *
                        static_cast<double>(devices_) *
                        static_cast<double>(w);
    return (mn + move) / cpuBw_.bytesPerNs();
}

TimeNs
Defragmenter::commPim(std::uint64_t n, double p,
                      std::uint32_t w) const
{
    // Eq. (2): (m n + d m n)/bdw_cpu + (d m n + 2 n p d w)/bdw_pim.
    const double mn =
        static_cast<double>(kMetadataBytes) * static_cast<double>(n);
    const double dmn = static_cast<double>(devices_) * mn;
    const double move = 2.0 * static_cast<double>(n) * p *
                        static_cast<double>(devices_) *
                        static_cast<double>(w);
    return (mn + dmn) / cpuBw_.bytesPerNs() +
           (dmn + move) / pimBw_.bytesPerNs();
}

double
Defragmenter::crossoverWidth(double p) const
{
    const double bp = pimBw_.bytesPerNs();
    const double bc = cpuBw_.bytesPerNs();
    if (bp <= bc)
        return std::numeric_limits<double>::infinity();
    return (bp + bc) / (2.0 * p * (bp - bc)) *
           static_cast<double>(kMetadataBytes);
}

DefragStats
Defragmenter::run(storage::TableStore &store, VersionManager &vm,
                  DefragStrategy strategy) const
{
    DefragStats stats;
    stats.deltaRows = vm.deltaUsed();
    if (stats.deltaRows == 0) {
        stats.chosen = strategy;
        return stats;
    }

    const auto &versions = vm.versions();
    // Per-device row width for Eqs. (1)-(3): the provisioned row
    // bytes spread over the stripe's devices.
    const std::uint32_t w = std::max<std::uint32_t>(
        1, (store.layout().paddedRowBytes() +
            store.layout().devices() - 1) /
               store.layout().devices());

    // One sweep of the arena in append order copies each row's newest
    // version back over its origin row and counts every swept entry
    // as a chain hop (Fig. 11(d) breakdown). Inserted rows land in
    // data-row and delta-slot order, so heads whose data row and
    // delta slot both step by one inside one rotation block merge
    // into a run, and a run is one device-local copy of rows x w
    // bytes per (part, device). The epoch pin covers the sweep and
    // must drop before reset(), which waits for all pinned readers.
    {
        const EpochGuard epoch(vm.epochs());
        const auto &circ = store.circulant();
        RowId run_data = 0, run_delta = 0;
        std::uint64_t run_rows = 0;
        const auto flush = [&] {
            stats.bytesMoved +=
                store.copyDeltaToData(run_delta, run_data, run_rows);
        };
        stats.chainSteps =
            vm.forEachHead([&](RowId data_row, std::uint32_t head) {
                const RowId slot = versions[head].deltaSlot;
                if (run_rows == 0 || data_row != run_data + run_rows ||
                    slot != run_delta + run_rows ||
                    circ.blockOf(data_row) != circ.blockOf(run_data) ||
                    circ.blockOf(slot) != circ.blockOf(run_delta)) {
                    flush();
                    run_data = data_row;
                    run_delta = slot;
                    run_rows = 0;
                }
                ++run_rows;
                ++stats.rowsCopied;
                // Repair visibility: origin row is current again.
                store.dataVisible().set(data_row);
            });
        flush();
    }
    store.deltaVisible().setAll(false);
    vm.reset();

    // Strategy timing per Eqs. (1)-(3).
    const double p = static_cast<double>(stats.rowsCopied) /
                     static_cast<double>(stats.deltaRows);
    DefragStrategy chosen = strategy;
    if (strategy == DefragStrategy::Hybrid)
        chosen = pickStrategy(w, p);
    stats.chosen = chosen;
    const TimeNs comm = chosen == DefragStrategy::CpuOnly
                            ? commCpu(stats.deltaRows, p, w)
                            : commPim(stats.deltaRows, p, w);

    // CPU-side per-row costs: chain traversal, ~1 ns per pointer hop
    // over cache-resident metadata. Against the per-version data
    // movement of the CH mix this lands near the paper's Fig. 11(d)
    // split (traverse 26.4%, copy 73.6%).
    const TimeNs traverse =
        1.0 * static_cast<double>(stats.chainSteps);
    stats.breakdown.add("traverse", traverse);
    stats.breakdown.add("copy", comm);
    stats.timeNs = traverse + comm;
    return stats;
}

} // namespace pushtap::mvcc
