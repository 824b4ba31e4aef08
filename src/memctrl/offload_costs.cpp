#include "memctrl/offload_costs.hpp"

namespace pushtap::memctrl {

pim::OffloadOverheads
originalArchOverheads(const dram::Geometry &geom)
{
    const double units_per_channel =
        static_cast<double>(geom.ranksPerChannel) *
        static_cast<double>(geom.banksPerRank());

    pim::OffloadOverheads ov;
    // One message to every unit to launch a phase...
    ov.launchNs = units_per_channel * kPerUnitMessageNs;
    // ...and at least one full status sweep to detect completion.
    ov.pollNs = units_per_channel * kPerUnitMessageNs;
    // LS phases hand the banks over and back, rank by rank.
    ov.handoverNs = 2.0 * kHandoverPerRankNs *
                    static_cast<double>(geom.ranksPerChannel);
    return ov;
}

pim::OffloadOverheads
pushtapArchOverheads(const dram::Geometry &geom,
                     const dram::TimingParams &timing)
{
    pim::OffloadOverheads ov;
    // One disguised write per launch (a row miss in the worst case),
    // decoded by the scheduler in hardware.
    ov.launchNs = timing.rowMissLatency() + kSchedulerDecodeNs;
    // The polling module samples the units and answers the poll read.
    ov.pollNs = kPollPeriodNs / 2.0 + timing.rowHitLatency();
    // The DRAM-side bank handover time is physical and unchanged.
    ov.handoverNs = 2.0 * kHandoverPerRankNs *
                    static_cast<double>(geom.ranksPerChannel);
    return ov;
}

} // namespace pushtap::memctrl
