#pragma once

/**
 * @file
 * Host-speed reference of pushtap_bench. On a shared host the
 * speed of the memory system drifts by 10-20% over minutes (other
 * tenants' cache and DRAM traffic), which moves every host-clock
 * metric together. The probe times a fixed memory-bound kernel that
 * shares no code with the library: dependent loads through a
 * random cycle over an 8 MB buffer (warmed first), the same over a
 * 4 MB buffer flushed from the caches, and a sequential sum over a
 * flushed 16 MB buffer. Sampled at intervals through a measured
 * phase, the sum of the three medians gives the run's reference time;
 * benchmark/run.py scales the host-clock end-to-end metrics by it.
 */

#include <cstdint>
#include <vector>

namespace pushtap::bench {

class HostProbe
{
  public:
    HostProbe();

    /**
     * Time one pass of each kernel. Fatal when another thread of the
     * process used the CPU meanwhile: the reference must see the host,
     * not the program's own background work.
     */
    void sample();

    /** Sum of the per-kernel medians over all samples, in ms. */
    double refMs() const;

  private:
    std::vector<std::uint32_t> warm_;
    std::vector<std::uint32_t> cold_;
    std::vector<std::uint64_t> stream_;
    std::vector<double> warmMs_, coldMs_, streamMs_;
};

} // namespace pushtap::bench
