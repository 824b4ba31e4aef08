#pragma once

/**
 * @file
 * Two-phase execution model (section 6.2): an OLAP operation over a
 * column is split into alternating load phases (bank handed to the PIM
 * DMA, CPU blocked on those banks) and compute phases (PIM works out
 * of WRAM, CPU accesses DRAM normally). The model returns the phase
 * schedule and the derived times, parameterised by the controller's
 * per-phase offload overheads so the PUSHtap controller and the
 * original software-managed PIM architecture (Fig. 12(b)) share it.
 */

#include <cstdint>

#include "common/types.hpp"
#include "pim/cost_model.hpp"

namespace pushtap::pim {

/** Per-phase offload overheads charged by the memory controller. */
struct OffloadOverheads
{
    /** CPU-side cost to initiate one launch (per phase). */
    TimeNs launchNs = 0.0;
    /** CPU-side cost to learn completion of one phase. */
    TimeNs pollNs = 0.0;
    /** Bank handover cost paid on phases that need DRAM access. */
    TimeNs handoverNs = 0.0;
};

/** Result of scheduling one operator over one PIM unit's share. */
struct TwoPhaseSchedule
{
    std::uint64_t phases = 0;        ///< Number of load+compute rounds.
    TimeNs loadTime = 0.0;           ///< Total DMA time.
    TimeNs computeTime = 0.0;        ///< Total WRAM compute time.
    TimeNs offloadOverhead = 0.0;    ///< Launch + poll + handover.
    TimeNs cpuBlockedTime = 0.0;     ///< Time CPU is locked out of banks.

    TimeNs
    total() const
    {
        return loadTime + computeTime + offloadOverhead;
    }

    /** Fraction of total spent on offload control (Fig. 12(b) metric). */
    double
    overheadFraction() const
    {
        const TimeNs t = total();
        return t > 0.0 ? offloadOverhead / t : 0.0;
    }
};

class TwoPhaseModel
{
  public:
    TwoPhaseModel(const CostModel &cost, const OffloadOverheads &ov)
        : cost_(cost), overheads_(ov)
    {}

    /**
     * Schedule @p op over @p bytes_per_unit of @p element_width-byte
     * elements residing in one unit's bank, chunked by half-WRAM
     * buffers.
     *
     * Each round: one LS launch (handover + DMA of a chunk, CPU
     * blocked) then one compute launch (no handover, CPU free).
     */
    TwoPhaseSchedule
    schedule(OpType op, Bytes bytes_per_unit,
             std::uint32_t element_width) const;

    const CostModel &costModel() const { return cost_; }
    const OffloadOverheads &overheads() const { return overheads_; }

  private:
    CostModel cost_;
    OffloadOverheads overheads_;
};

} // namespace pushtap::pim
