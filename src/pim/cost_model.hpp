#pragma once

/**
 * @file
 * PIM instruction cost model: converts per-element operator work into
 * compute-phase time given the unit's pipeline throughput. Costs are
 * per scanned element and reflect UPMEM-style load/compare/store
 * instruction mixes.
 */

#include <cstdint>

#include "common/types.hpp"
#include "pim/pim_config.hpp"

namespace pushtap::pim {

/** Operation types the extended controller launches (Fig. 7(b)). */
enum class OpType : std::uint8_t
{
    LS = 0,          ///< Load/store phase: DMA between DRAM and WRAM.
    Filter = 1,      ///< Compare a column against a condition.
    Group = 2,       ///< Compute group indices via a dictionary.
    Aggregation = 3, ///< Accumulate values into per-group sums.
    Hash = 4,        ///< Hash a column.
    Join = 5,        ///< Probe/match hashed buckets.
    Defragment = 6,  ///< Copy newest delta rows back to data region.
};

class CostModel
{
  public:
    explicit CostModel(const PimConfig &cfg) : cfg_(cfg) {}

    /** Pipeline instructions executed per element for operator @p op. */
    static double
    instructionsPerElement(OpType op)
    {
        switch (op) {
          case OpType::LS:
            return 0.0; // DMA engine, bandwidth-bound.
          case OpType::Filter:
            return 6.0; // load, mask test, compare, bit set, loop.
          case OpType::Group:
            return 10.0; // load, dictionary search, store index.
          case OpType::Aggregation:
            return 8.0; // load value + index, add, store.
          case OpType::Hash:
            return 12.0; // load, mix rounds, store.
          case OpType::Join:
            return 20.0; // bucket probe, compare, emit.
          case OpType::Defragment:
            return 2.0; // per-byte copy bookkeeping (DMA assisted).
        }
        return 0.0;
    }

    /** Compute-phase time for @p n_elements of operator @p op. */
    TimeNs
    computeTime(OpType op, std::uint64_t n_elements) const
    {
        const double instrs =
            instructionsPerElement(op) *
            static_cast<double>(n_elements);
        return instrs / cfg_.instructionsPerSecond() * 1e9;
    }

    /** Load-phase DMA time for @p bytes at the unit stream bandwidth. */
    TimeNs
    dmaTime(Bytes bytes) const
    {
        return cfg_.streamBandwidth.transferTime(bytes);
    }

    const PimConfig &config() const { return cfg_; }

  private:
    PimConfig cfg_;
};

} // namespace pushtap::pim
