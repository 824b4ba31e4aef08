#pragma once

/**
 * @file
 * Per-phase offload overheads for the two controller designs compared
 * in Fig. 12(b):
 *
 *  - the *original* general-purpose PIM architecture, where the CPU
 *    software launches and polls every PIM unit individually through
 *    the PIM interface (tens of microseconds per sweep, section 2.1);
 *  - the *PUSHtap* extended controller, where one disguised write
 *    launches a whole channel and the polling module answers a single
 *    disguised read.
 */

#include "common/types.hpp"
#include "dram/geometry.hpp"
#include "dram/timing_params.hpp"
#include "pim/two_phase.hpp"

namespace pushtap::memctrl {

/** Scheduler decode + broadcast cost per launch. */
inline constexpr TimeNs kSchedulerDecodeNs = 4.0;

/**
 * Bank-handover cost per rank, CPU to PIM or back (0.2 us, measured
 * on a real UPMEM server per section 7.1).
 */
inline constexpr TimeNs kHandoverPerRankNs = 200.0;

/**
 * Polling module sampling period: one status sweep of the channel's
 * PIM interfaces.
 */
inline constexpr TimeNs kPollPeriodNs = 2000.0;

/**
 * Per-unit software message cost (one mailbox write or status read
 * through the rank's PIM interface). Calibrated so a full launch+poll
 * sweep of one channel's 256 units lands in the "tens of microseconds"
 * range reported for the commercial part, which reproduces the
 * 88.8% -> 35.3% mode-switch overhead span of Fig. 12(b).
 */
inline constexpr TimeNs kPerUnitMessageNs = 165.0;

/**
 * Overheads of the original architecture for one load+compute round:
 * both phases need a software launch sweep and a poll sweep over every
 * unit of the channel; LS phases additionally pay the per-rank bank
 * handover in both directions.
 */
pim::OffloadOverheads originalArchOverheads(const dram::Geometry &geom);

/**
 * Overheads of the PUSHtap extended controller: launching is one
 * disguised DRAM write, completion detection costs half a polling
 * period on average plus one read, and LS phases pay the same per-rank
 * handover (the scheduler drives it, but the DRAM-side switch time is
 * physical and unchanged).
 */
pim::OffloadOverheads
pushtapArchOverheads(const dram::Geometry &geom,
                     const dram::TimingParams &timing);

} // namespace pushtap::memctrl
