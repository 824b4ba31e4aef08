#pragma once

/**
 * @file
 * DRAM system geometry (Table 1) and the two-dimensional access
 * parameters derived from it: the ADE stripe (how many devices share a
 * CPU line, at what interleave granularity) and the IDE streaming unit
 * (one PIM unit per bank).
 */

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "common/units.hpp"

namespace pushtap::dram {

struct Geometry
{
    std::string name;

    std::uint32_t channels;       ///< Memory channels holding PIM DRAM.
    std::uint32_t ranksPerChannel;
    std::uint32_t devicesPerRank; ///< Chips striped by CPU interleaving.
    std::uint32_t banksPerDevice;
    std::uint64_t rowsPerBank;
    std::uint64_t columnsPerRow;  ///< Bytes per device row buffer.

    /**
     * Interleave granularity g: bytes each device contributes to one
     * CPU access (8 B on DIMM per the DDR protocol, 64 B on HBM).
     */
    Bytes interleaveGranularity;

    /** CPU cache-line size; one line == one ADE stripe on DIMM. */
    Bytes lineBytes;

    /**
     * True when a CPU line stripes across devicesPerRank devices (DIMM).
     * False when a line comes from a single bank granule (HBM) so each
     * part slot costs an independent granule fetch.
     */
    bool stripedLines;

    std::uint32_t
    banksPerRank() const
    {
        return devicesPerRank * banksPerDevice;
    }

    std::uint32_t
    totalBanks() const
    {
        return channels * ranksPerChannel * banksPerRank();
    }

    /** One PIM unit per bank (UPMEM-like). */
    std::uint32_t pimUnitCount() const { return totalBanks(); }

    Bytes
    bytesPerBank() const
    {
        return rowsPerBank * columnsPerRow;
    }

    Bytes
    bytesPerRank() const
    {
        return bytesPerBank() * banksPerRank();
    }

    Bytes
    totalBytes() const
    {
        return bytesPerRank() * ranksPerChannel * channels;
    }

    /** Devices per ADE stripe (1 when not striped). */
    std::uint32_t
    stripeDevices() const
    {
        return stripedLines ? devicesPerRank : 1;
    }

    /** DIMM-based default system (Table 1): 4 ch x 4 ranks PIM DRAM. */
    static Geometry dimmDefault();

    /** HBM-based comparison system (Table 1): 32 channels. */
    static Geometry hbmDefault();
};

} // namespace pushtap::dram
