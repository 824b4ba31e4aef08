/**
 * @file
 * pushtap_bench: runs one benchmark workload per process and prints
 * its raw measurements as one JSON line.
 *
 *   pushtap_bench --workload W --seed S [--seconds N] [--trace FILE]
 *   pushtap_bench --info
 *
 * --seed drives the database population, the transaction stream and
 * the per-round order of the 22 CH plans; --seconds sizes the
 * measured phase. --trace records spans and writes them to FILE at
 * exit. --info prints the build and host facts run.py stamps into
 * every result file. benchmark/run.py turns the JSON into metrics.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/worker_pool.hpp"
#include "trace.hpp"
#include "workloads.hpp"

using namespace pushtap;
using namespace pushtap::bench;

namespace {

constexpr const char *kUsage =
    "usage: pushtap_bench --workload W --seed S [--seconds N] "
    "[--trace FILE]\n"
    "       pushtap_bench --info\n";

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Nearest-rank percentile of sorted samples (0 when empty). */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

void
printInfo()
{
#if defined(NDEBUG) && defined(__OPTIMIZE__)
    const bool release = true;
#else
    const bool release = false;
#endif
    __builtin_cpu_init();
    std::printf("{\"release\": %s, \"compiler\": %s, \"avx2\": %s, "
                "\"avx512vbmi\": %s, \"nproc\": %u}\n",
                release ? "true" : "false",
#ifdef __clang__
                jsonString("clang " __VERSION__).c_str(),
#else
                jsonString("gcc " __VERSION__).c_str(),
#endif
                __builtin_cpu_supports("avx2") ? "true" : "false",
                __builtin_cpu_supports("avx512vbmi") ? "true" : "false",
                WorkerPool::hardwareWorkers());
}

void
printRecord(const RunConfig &cfg, const RunRecord &rec)
{
    std::vector<double> lat = rec.latencyMs;
    std::sort(lat.begin(), lat.end());
    std::string setup;
    for (const double s : rec.setupS)
        setup += (setup.empty() ? "" : ", ") + jsonNumber(s);
    std::string errors;
    for (const auto &e : rec.errors)
        errors += (errors.empty() ? "" : ", ") + jsonString(e);

    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
        "\"setup_s\": [%s], \"measured_s\": %s, "
        "\"ops\": %llu, \"latency_ms\": {\"n\": %zu, \"p50\": %s, "
        "\"p90\": %s, \"p95\": %s, \"p99\": %s}, "
        "\"model_latency_us\": %s, \"peak_rss_mb\": %s, "
        "\"host_ref_ms\": %s, \"probe_s\": %s, "
        "\"attempted\": %llu, \"failed\": %llu, \"checked\": %llu, "
        "\"check_failed\": %llu, \"verify_s\": %s, "
        "\"errors\": [%s]}\n",
        jsonString(cfg.workload).c_str(),
        static_cast<unsigned long long>(cfg.seed),
        jsonNumber(cfg.seconds).c_str(),
        setup.c_str(), jsonNumber(rec.measuredS).c_str(),
        static_cast<unsigned long long>(rec.ops),
        lat.size(), jsonNumber(percentile(lat, 50)).c_str(),
        jsonNumber(percentile(lat, 90)).c_str(),
        jsonNumber(percentile(lat, 95)).c_str(),
        jsonNumber(percentile(lat, 99)).c_str(),
        jsonNumber(rec.modelLatencyUs).c_str(),
        jsonNumber(rec.peakRssMb).c_str(), jsonNumber(rec.hostRefMs).c_str(),
        jsonNumber(rec.probeS).c_str(),
        static_cast<unsigned long long>(rec.attempted),
        static_cast<unsigned long long>(rec.failed),
        static_cast<unsigned long long>(rec.checked),
        static_cast<unsigned long long>(rec.checkFailed),
        jsonNumber(rec.verifyS).c_str(), errors.c_str());
}

/** Parse a finite non-negative number; false on any stray text. */
bool
parseNumber(const char *s, double &out)
{
    char *end = nullptr;
    out = std::strtod(s, &end);
    return end != s && *end == '\0' && std::isfinite(out) && out >= 0;
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--info") {
            printInfo();
            return 0;
        }
        if (i + 1 >= argc) {
            std::fputs(kUsage, stderr);
            return 2;
        }
        const char *value = argv[++i];
        double number = 0.0;
        if (arg == "--workload") {
            cfg.workload = value;
        } else if (arg == "--seed" && parseNumber(value, number) &&
                   number == std::floor(number) && number < 1e18) {
            cfg.seed = static_cast<std::uint64_t>(number);
        } else if (arg == "--seconds" && parseNumber(value, number) &&
                   number > 0 && number <= 600) {
            cfg.seconds = number;
        } else if (arg == "--trace") {
            trace_path = value;
        } else {
            std::fputs(kUsage, stderr);
            return 2;
        }
    }
    try {
        Tracer tracer;
        if (!trace_path.empty())
            cfg.tracer = &tracer;
        const RunRecord rec = runWorkload(cfg);
        if (cfg.tracer)
            tracer.write(trace_path);
        printRecord(cfg, rec);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "pushtap_bench: %s\n", e.what());
        return 1;
    }
    return 0;
}
