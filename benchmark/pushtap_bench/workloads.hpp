#pragma once

/**
 * @file
 * The four benchmark workloads (oltp, olap_small, olap_large, htap),
 * each a closed loop over the public PushtapDB / TpccEngine /
 * TxnWorkerGroup / OlapEngine API. Only sizing (scale and insert
 * headroom) and seeds are set; every execution knob keeps its shipped
 * default. The amount of work is fixed by the workload and
 * --seconds, never by the clock, so runs of one (workload, seed,
 * seconds) do identical work.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace pushtap::bench {

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Sizes the measured phase: about this long on a 4-thread
     *  Xeon host. */
    double seconds = 10.0;
    /** Null when tracing is off. */
    Tracer *tracer = nullptr;
};

/** Raw measurements of one run; main() derives the metrics. */
struct RunRecord
{
    /** PushtapDB construction plus one warm-up round, per repeat. */
    std::vector<double> setupS;
    /** Measured phase wall time, answer checks and host probes
     *  excluded. */
    double measuredS = 0.0;
    /** Throughput operations: transactions (oltp, htap) or queries
     *  (olap_*). */
    std::uint64_t ops = 0;
    /** Request latency samples: NewOrder from when it was due
     *  (oltp), snapshot + query (olap_*, htap). */
    std::vector<double> latencyMs;
    /** Modelled (paper clock) latency of the same requests. */
    double modelLatencyUs = 0.0;
    /** Process peak RSS at the end of the measured phase. */
    double peakRssMb = 0.0;
    /** HostProbe reference time over the measured phase, and the time
     *  its samples took (kept out of measuredS). */
    double hostRefMs = 0.0;
    double probeS = 0.0;

    std::uint64_t attempted = 0; ///< Transactions and queries issued.
    std::uint64_t failed = 0;    ///< Threw, or answered wrongly.
    std::uint64_t checked = 0;   ///< Answers compared to the oracle.
    std::uint64_t checkFailed = 0;
    double verifyS = 0.0;
    /** First few failure messages. */
    std::vector<std::string> errors;
};

/** Run one workload (oltp, olap_small, olap_large or htap);
 *  FatalError for any other name. */
RunRecord runWorkload(const RunConfig &cfg);

} // namespace pushtap::bench
