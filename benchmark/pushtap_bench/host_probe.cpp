#include "host_probe.hpp"

#include <algorithm>
#include <numeric>

#include <immintrin.h>
#include <sys/resource.h>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "trace.hpp"

namespace pushtap::bench {
namespace {

/** 32-bit words per 64-byte cache line. */
constexpr std::size_t kLineWords = 16;

/** Keeps the kernels' results alive. */
volatile std::uint64_t sink;

/** @p lines cache lines whose first words chain one random cycle
 *  through all of them. */
std::vector<std::uint32_t>
cycleBuffer(std::size_t lines, std::uint64_t seed)
{
    std::vector<std::uint32_t> order(lines);
    std::iota(order.begin(), order.end(), 0u);
    Rng rng(seed);
    for (std::size_t i = lines - 1; i > 0; --i)
        std::swap(order[i], order[rng.below(i + 1)]);
    std::vector<std::uint32_t> buf(lines * kLineWords);
    for (std::size_t i = 0; i < lines; ++i)
        buf[order[i] * kLineWords] = order[(i + 1) % lines];
    return buf;
}

/** Follow the cycle once round: one dependent load per line. */
std::uint32_t
chase(const std::vector<std::uint32_t> &buf)
{
    std::uint32_t line = 0;
    for (std::size_t i = 0, n = buf.size() / kLineWords; i < n; ++i)
        line = buf[line * kLineWords];
    return line;
}

template <typename T>
void
flush(const std::vector<T> &v)
{
    const auto *p = reinterpret_cast<const char *>(v.data());
    for (std::size_t off = 0; off < v.size() * sizeof(T); off += 64)
        _mm_clflush(p + off);
    _mm_mfence();
}

double
cpuMs(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
               1e3 +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-3;
}

double
median(std::vector<double> v)
{
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    return *mid;
}

double
msBetween(std::int64_t a, std::int64_t b)
{
    return static_cast<double>(b - a) * 1e-6;
}

} // namespace

HostProbe::HostProbe()
    : warm_(cycleBuffer(std::size_t{1} << 17, 1)),
      cold_(cycleBuffer(std::size_t{1} << 16, 2)),
      stream_(std::size_t{1} << 21, 3)
{
}

void
HostProbe::sample()
{
    const double others = cpuMs(RUSAGE_SELF) - cpuMs(RUSAGE_THREAD);
    const std::int64_t t0 = nowNs();
    std::uint64_t s = chase(warm_);
    const std::int64_t t1 = nowNs();
    s += chase(warm_);
    const std::int64_t t2 = nowNs();
    flush(cold_);
    flush(stream_);
    const std::int64_t t3 = nowNs();
    s += chase(cold_);
    const std::int64_t t4 = nowNs();
    for (const std::uint64_t v : stream_)
        s += v;
    const std::int64_t t5 = nowNs();
    sink = s;
    const double others_ms =
        cpuMs(RUSAGE_SELF) - cpuMs(RUSAGE_THREAD) - others;
    if (others_ms > 0.1 * msBetween(t0, t5))
        fatal("other threads used {} ms of CPU during a {} ms host-speed "
              "probe",
              others_ms, msBetween(t0, t5));
    warmMs_.push_back(msBetween(t1, t2));
    coldMs_.push_back(msBetween(t3, t4));
    streamMs_.push_back(msBetween(t4, t5));
}

double
HostProbe::refMs() const
{
    if (warmMs_.empty())
        return 0.0;
    return median(warmMs_) + median(coldMs_) + median(streamMs_);
}

} // namespace pushtap::bench
