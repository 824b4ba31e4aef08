#include "trace.hpp"

#include <cstdio>
#include <memory>

#include "common/log.hpp"

namespace pushtap::bench {

Tracer::SpanId
Tracer::open(const char *name, std::uint64_t req, SpanId parent,
             std::int64_t start_ns)
{
    spans_.push_back(Span{name, parent, req, start_ns, start_ns, 0, 0});
    return static_cast<SpanId>(spans_.size());
}

void
Tracer::close(SpanId id, std::int64_t end_ns,
              std::initializer_list<Counter> counters)
{
    Span &s = spans_.at(id - 1);
    s.end = end_ns;
    s.firstCounter = static_cast<std::uint32_t>(counters_.size());
    s.counters = static_cast<std::uint32_t>(counters.size());
    counters_.insert(counters_.end(), counters);
}

void
Tracer::write(const std::string &path) const
{
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> f(
        std::fopen(path.c_str(), "w"), &std::fclose);
    if (!f)
        fatal("cannot open trace file {}", path);
    const std::int64_t origin = spans_.empty() ? 0 : spans_[0].start;
    std::fprintf(f.get(), "# pushtap_bench trace v1: id parent name "
                          "req start_ns end_ns counters\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f.get(), "%zu\t%u\t%s\t%llu\t%lld\t%lld\t", i + 1,
                     s.parent, s.name,
                     static_cast<unsigned long long>(s.req),
                     static_cast<long long>(s.start - origin),
                     static_cast<long long>(s.end - origin));
        for (std::uint32_t c = 0; c < s.counters; ++c) {
            const Counter &k = counters_[s.firstCounter + c];
            std::fprintf(f.get(), "%s%s=%.17g", c ? ";" : "", k.key,
                         k.value);
        }
        std::fputc('\n', f.get());
    }
    if (std::ferror(f.get()))
        fatal("cannot write trace file {}", path);
}

double
Tracer::spanCostNs()
{
    static const double cost = [] {
        constexpr int kSpans = 20'000;
        Tracer scratch;
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < kSpans; ++i) {
            Scope s(&scratch, "calibrate", static_cast<std::uint64_t>(i));
            s.close({{"a", 1.0}, {"b", 2.0}});
        }
        return static_cast<double>(nowNs() - t0) / kSpans;
    }();
    return cost;
}

} // namespace pushtap::bench
