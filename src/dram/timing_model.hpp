#pragma once

/**
 * @file
 * Analytic batch timing model. Engines report access batches (how many
 * lines, streamed or random, read or write) and receive nanoseconds,
 * computed from the Table 1 timing parameters. This stands in for the
 * trace-driven ramulator-pim runs of the paper.
 */

#include <algorithm>
#include <cstdint>

#include "common/types.hpp"
#include "common/units.hpp"
#include "dram/geometry.hpp"
#include "dram/timing_params.hpp"

namespace pushtap::dram {

class BatchTimingModel
{
  public:
    BatchTimingModel(const Geometry &geom, const TimingParams &timing)
        : geom_(geom), timing_(timing)
    {}

    const Geometry &geometry() const { return geom_; }
    const TimingParams &timing() const { return timing_; }

    /** Peak CPU-visible bus bandwidth over all PIM channels. */
    Bandwidth
    cpuPeakBandwidth() const
    {
        const double per_channel =
            static_cast<double>(geom_.lineBytes) / timing_.tBURST;
        return Bandwidth::gbPerSec(per_channel * geom_.channels *
                                   timing_.refreshAvailability());
    }

    /** Latency of one isolated row-miss line access. */
    TimeNs
    randomAccessLatency() const
    {
        return timing_.rowMissLatency();
    }

    /** Latency of one row-hit line access. */
    TimeNs
    rowHitLatency() const
    {
        return timing_.rowHitLatency();
    }

    /**
     * Time for the CPU to stream @p n_lines sequential lines using all
     * channels (bus-bound; row misses amortise across banks).
     */
    TimeNs
    lineStreamTime(std::uint64_t n_lines) const
    {
        const double bus = static_cast<double>(n_lines) * timing_.tBURST /
                           static_cast<double>(geom_.channels);
        return bus / timing_.refreshAvailability();
    }

    /**
     * Time for the CPU to perform @p n_lines independent random line
     * accesses at full concurrency: bounded by either bus occupancy or
     * bank occupancy (each random access holds its bank for
     * tRAS + tRP).
     */
    TimeNs
    randomLineBatchTime(std::uint64_t n_lines) const
    {
        const double bus = static_cast<double>(n_lines) * timing_.tBURST /
                           static_cast<double>(geom_.channels);
        const double bank_occupancy = timing_.tRAS + timing_.tRP;
        const double banks = static_cast<double>(geom_.totalBanks()) /
                             static_cast<double>(geom_.stripeDevices());
        const double bank = static_cast<double>(n_lines) *
                            bank_occupancy / banks;
        return std::max(bus, bank) / timing_.refreshAvailability();
    }

    /**
     * Write variant of randomLineBatchTime: writes additionally hold
     * the bank for the write-recovery time tWR.
     */
    TimeNs
    randomWriteBatchTime(std::uint64_t n_lines) const
    {
        const double bus = static_cast<double>(n_lines) * timing_.tBURST /
                           static_cast<double>(geom_.channels);
        const double bank_occupancy =
            timing_.tRAS + timing_.tRP + timing_.tWR;
        const double banks = static_cast<double>(geom_.totalBanks()) /
                             static_cast<double>(geom_.stripeDevices());
        const double bank = static_cast<double>(n_lines) *
                            bank_occupancy / banks;
        return std::max(bus, bank) / timing_.refreshAvailability();
    }

    /**
     * Time for one PIM unit to stream @p bytes from its local bank at
     * the per-unit bandwidth @p unit_bw (1 GB/s on the commercial
     * DIMM-based part).
     */
    TimeNs
    pimStreamTime(Bytes bytes, Bandwidth unit_bw) const
    {
        return unit_bw.transferTime(bytes) /
               timing_.refreshAvailability();
    }

    /** Aggregate internal bandwidth of all PIM units. */
    Bandwidth
    pimAggregateBandwidth(Bandwidth unit_bw) const
    {
        return unit_bw * static_cast<double>(geom_.pimUnitCount());
    }

  private:
    Geometry geom_;
    TimingParams timing_;
};

} // namespace pushtap::dram
