#pragma once

/**
 * @file
 * Defragmentation (section 5.3): periodically move the newest version
 * of every updated row from the delta region back over its origin row
 * in the data region, then release the delta space. OLTP pauses
 * during defragmentation.
 *
 * Two data-movement strategies exist — CPU copy over the memory bus,
 * or broadcast the metadata and let the PIM units copy locally — with
 * communication costs given by Eqs. (1) and (2); Eq. (3) gives the
 * row-width crossover. The hybrid strategy picks per table.
 */

#include <cstdint>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "mvcc/version_manager.hpp"
#include "storage/table_store.hpp"

namespace pushtap::mvcc {

enum class DefragStrategy : std::uint8_t
{
    CpuOnly,
    PimOnly,
    Hybrid,
};

const char *defragStrategyName(DefragStrategy s);

struct DefragStats
{
    std::uint64_t deltaRows = 0;    ///< n: rows used in the delta region.
    std::uint64_t rowsCopied = 0;   ///< n*p: newest versions moved back.
    std::uint64_t chainSteps = 0;   ///< Version-chain hops performed.
    Bytes bytesMoved = 0;           ///< Payload bytes copied.
    TimeNs timeNs = 0.0;            ///< Modelled wall time.
    DefragStrategy chosen = DefragStrategy::CpuOnly;
    Breakdown breakdown;            ///< "traverse" vs "copy" (Fig. 11(d)).
};

class Defragmenter
{
  public:
    /**
     * @param cpu_bandwidth  Memory-bus bandwidth available to the CPU.
     * @param pim_bandwidth  Aggregate PIM-unit bandwidth.
     * @param devices        d: devices per stripe.
     */
    Defragmenter(Bandwidth cpu_bandwidth, Bandwidth pim_bandwidth,
                 std::uint32_t devices)
        : cpuBw_(cpu_bandwidth), pimBw_(pim_bandwidth),
          devices_(devices)
    {}

    /**
     * Run defragmentation on @p store / @p vm with @p strategy.
     * Functionally: one sweep of the version arena in append order
     * copies each row's newest version back over its origin row,
     * then the visibility bitmaps are repaired and the version
     * chains reset. Heads whose data row and delta slot both step by
     * one inside one rotation block (NewOrder's inserts) merge into
     * runs, and each run is one TableStore::copyDeltaToData: a
     * device-local copy per (part, device). chainSteps counts the
     * entries swept, which is the summed length of all chains;
     * rowsCopied and bytesMoved count rows, whatever the runs. The
     * returned stats carry the modelled strategy time.
     *
     * Per-row CPU costs (chain traverse, metadata merge) are included
     * in the breakdown; the caller adds fixed thread/PIM activation
     * overheads (Fig. 11(b) separates them).
     */
    DefragStats run(storage::TableStore &store, VersionManager &vm,
                    DefragStrategy strategy) const;

    /** Eq. (1): CPU-copy communication time. */
    TimeNs commCpu(std::uint64_t n, double p, std::uint32_t w) const;

    /** Eq. (2): PIM-copy communication time. */
    TimeNs commPim(std::uint64_t n, double p, std::uint32_t w) const;

    /**
     * Eq. (3): row width above which the PIM strategy wins:
     * w > (bPIM + bCPU) / (2 p (bPIM - bCPU)) * m.
     */
    double crossoverWidth(double p) const;

    /** Strategy the hybrid picks for a per-device row width @p w. */
    DefragStrategy
    pickStrategy(std::uint32_t w, double p) const
    {
        return static_cast<double>(w) > crossoverWidth(p)
                   ? DefragStrategy::PimOnly
                   : DefragStrategy::CpuOnly;
    }

  private:
    Bandwidth cpuBw_;
    Bandwidth pimBw_;
    std::uint32_t devices_;
};

} // namespace pushtap::mvcc
