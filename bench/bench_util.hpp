#pragma once

/**
 * @file
 * Shared helpers for the figure/table benches: benchmark-wide
 * effective-bandwidth evaluation (Fig. 8 family), common setup, and
 * the host ISA flags and reference time of the BENCH_*.json machine
 * headers.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "format/bandwidth.hpp"
#include "format/generators.hpp"
#include "workload/ch_schema.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::benchutil {

struct FormatEffectiveness
{
    double cpuEff = 0.0; ///< Full-row read efficiency, byte-weighted.
    double pimEff = 0.0; ///< Key-column scan efficiency, weighted.
};

/**
 * Evaluate the compact aligned format at threshold @p th over a set of
 * schemas (key columns already marked). With @p naive, the naive
 * aligned format of Fig. 3(b) is evaluated instead (the paper's
 * "ALL" case: every column a key column degrades to it).
 *
 * CPU: useful/fetched bytes for full-row reads, weighted by each
 * table's total bytes. PIM: column width over slot width for every
 * scanned key column, weighted by scan frequency x rows x width.
 */
inline FormatEffectiveness
evaluateFormat(
    const std::vector<format::TableSchema> &schemas,
    const std::map<workload::ChTable, std::uint64_t> &row_counts,
    const std::map<std::pair<workload::ChTable, std::string>,
                   std::uint32_t> &scan_freqs,
    double th, std::uint32_t devices,
    const format::BandwidthModel &bw, bool naive = false)
{
    double cpu_useful = 0.0, cpu_fetched = 0.0;
    double pim_useful = 0.0, pim_fetched = 0.0;

    for (std::size_t i = 0; i < schemas.size(); ++i) {
        const auto table = static_cast<workload::ChTable>(i);
        const auto &schema = schemas[i];
        const auto layout =
            naive ? format::naiveAligned(schema, devices)
                  : format::compactAligned(schema, devices, th);
        const auto rows =
            static_cast<double>(row_counts.at(table));

        const auto row_access = bw.fullRowAccess(layout);
        cpu_useful += rows * row_access.usefulBytes;
        cpu_fetched += rows * row_access.fetchedBytes;

        for (const auto &[key, freq] : scan_freqs) {
            if (key.first != table || !schema.hasColumn(key.second))
                continue;
            const auto col = schema.columnId(key.second);
            if (!schema.column(col).isKey)
                continue; // normal column: CPU-scanned, not PIM
            const auto &pl = layout.keyPlacement(col);
            const double w = layout.parts()[pl.part].rowWidth;
            const double width = schema.column(col).width;
            pim_useful += freq * rows * width;
            pim_fetched += freq * rows * w;
        }
    }

    FormatEffectiveness eff;
    eff.cpuEff = cpu_fetched > 0.0 ? cpu_useful / cpu_fetched : 0.0;
    eff.pimEff = pim_fetched > 0.0 ? pim_useful / pim_fetched : 0.0;
    return eff;
}

/**
 * The host's vector ISA flags the batch kernels could use, as a JSON
 * object for the machine header of a BENCH_*.json file (all false off
 * x86-64).
 */
inline std::string
isaJson()
{
#if defined(__x86_64__)
    const bool avx2 = __builtin_cpu_supports("avx2");
    const bool avx512f = __builtin_cpu_supports("avx512f");
    const bool avx512bw = __builtin_cpu_supports("avx512bw");
    const bool avx512vbmi = __builtin_cpu_supports("avx512vbmi");
#else
    const bool avx2 = false, avx512f = false, avx512bw = false,
               avx512vbmi = false;
#endif
    const auto flag = [](bool on) { return on ? "true" : "false"; };
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "{\"avx2\": %s, \"avx512f\": %s, \"avx512bw\": %s, "
                  "\"avx512vbmi\": %s}",
                  flag(avx2), flag(avx512f), flag(avx512bw),
                  flag(avx512vbmi));
    return buf;
}

/**
 * The host's reference time for the machine header of a BENCH_*.json
 * file: the best of 15 timings, in ns, of a fixed scalar loop of 2^20
 * dependent multiply-xorshift steps that calls no library code. It
 * puts the rows of two runs or hosts on one scale for compute:
 * a host that runs everything 1.5x slower reads a 1.5x larger
 * reference. It does not see interference that slows only
 * memory-bound kernels.
 */
inline double
referenceNs()
{
    double best = 0.0;
    for (int round = 0; round < 15; ++round) {
        std::uint64_t x = static_cast<std::uint64_t>(round) + 1;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint32_t i = 0; i < (1u << 20); ++i) {
            x ^= x >> 29;
            x *= 0xbf58476d1ce4e5b9ull;
            // Keeps every step in the timed loop, unvectorized.
            asm volatile("" : "+r"(x));
        }
        const auto t1 = std::chrono::steady_clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count();
        best = round == 0 ? ns : std::min(best, ns);
    }
    return best;
}

/** Percentage formatting shorthand. */
inline std::string
pct(double fraction, int precision = 1)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision,
                  fraction * 100.0);
    return buf;
}

} // namespace pushtap::benchutil
