#pragma once

/**
 * @file
 * PIM unit configuration (Table 1, "PIM Units"): UPMEM-like
 * general-purpose units, one per DRAM bank.
 */

#include <cstdint>

#include "common/types.hpp"
#include "common/units.hpp"

namespace pushtap::pim {

struct PimConfig
{
    double frequencyMHz = 500.0;  ///< Pipeline clock.
    std::uint32_t tasklets = 16;  ///< Hardware threads per unit.
    Bytes wramBytes = 64 * kKiB;  ///< Operand scratchpad.
    Bytes iramBytes = 24 * kKiB;  ///< Instruction scratchpad.
    std::uint32_t wireBits = 64;  ///< PIM-DRAM data wire width.

    /** Per-unit DRAM<->WRAM streaming bandwidth (1 GB/s, [11]). */
    Bandwidth streamBandwidth = Bandwidth::gbPerSec(1.0);

    /**
     * Half of WRAM buffers the data of a load phase (section 6.2);
     * the other half is working memory.
     */
    Bytes
    loadChunkBytes() const
    {
        return wramBytes / 2;
    }

    /**
     * Aggregate instruction throughput (instructions/second): the
     * 11-stage pipeline retires ~1 instruction per cycle when enough
     * tasklets are resident; 16 tasklets saturate it.
     */
    double
    instructionsPerSecond() const
    {
        const double saturation =
            tasklets >= 11 ? 1.0
                           : static_cast<double>(tasklets) / 11.0;
        return frequencyMHz * 1e6 * saturation;
    }

    /** Default DIMM-based PIM unit. */
    static PimConfig upmemLike() { return PimConfig{}; }

    /**
     * HBM-based variant: identical unit, but the faster HBM bank
     * timing raises per-unit streaming bandwidth (calibrated to the
     * paper's 2.1x defragmentation-time reduction, section 7.3.2).
     */
    static PimConfig
    hbmVariant()
    {
        PimConfig c;
        c.streamBandwidth = Bandwidth::gbPerSec(2.1);
        return c;
    }
};

} // namespace pushtap::pim
