#pragma once

/**
 * @file
 * In-memory span recorder of pushtap_bench. A span is one call into
 * a layer, recorded around that call from the benchmark's own
 * code: name, request id, parent span, start and end on the steady
 * clock, plus the counters read at its end. Spans stay in memory and
 * are written once, when the run ends, so tracing does no I/O while
 * the workload is measured.
 *
 * File format (one span per line, tab-separated, times in ns from
 * the first recorded span):
 *
 *   id  parent  name  req  start_ns  end_ns  key=value;key=value
 *
 * Ids start at 1; parent 0 marks a root. benchmark/run.py reduces
 * the file to per-layer metrics using self time (a span's duration
 * minus the part its children cover).
 */

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace pushtap::bench {

/** The benchmark's one timebase: steady-clock nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** A counter read at a span boundary. Keys are string literals. */
struct Counter
{
    const char *key;
    double value;
};

class Tracer
{
  public:
    using SpanId = std::uint32_t;
    /** Parent id of a root span. */
    static constexpr SpanId kRoot = 0;

    /** Open a span at @p start_ns; names are string literals. */
    SpanId open(const char *name, std::uint64_t req, SpanId parent,
                std::int64_t start_ns);

    void close(SpanId id, std::int64_t end_ns,
               std::initializer_list<Counter> counters);

    /** Write every span to @p path; throws FatalError on I/O error. */
    void write(const std::string &path) const;

    /**
     * Host cost of recording one span (open + close with two
     * counters), measured once per process on a scratch tracer. The
     * benchmark multiplies it by the span count to estimate how much of
     * a traced run the tracer itself took.
     */
    static double spanCostNs();

  private:
    struct Span
    {
        const char *name;
        SpanId parent;
        std::uint64_t req;
        std::int64_t start;
        std::int64_t end;
        std::uint32_t firstCounter;
        std::uint32_t counters;
    };

    std::vector<Span> spans_;
    std::vector<Counter> counters_;
};

/**
 * RAII span over a tracer that may be null (tracing off), in which
 * case it reads no clock and records nothing.
 */
class Scope
{
  public:
    /** Span starting now. */
    Scope(Tracer *t, const char *name, std::uint64_t req,
          Tracer::SpanId parent = Tracer::kRoot)
        : Scope(t, name, req, parent, t ? nowNs() : 0)
    {
    }

    /** Span starting at an earlier instant (e.g. when a request was
     *  due rather than when it was issued). */
    Scope(Tracer *t, const char *name, std::uint64_t req,
          Tracer::SpanId parent, std::int64_t start_ns)
        : t_(t), id_(t ? t->open(name, req, parent, start_ns) : 0)
    {
    }

    ~Scope() { close(); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    Tracer::SpanId id() const { return id_; }

    /** End the span now with @p counters (later calls do nothing). */
    void
    close(std::initializer_list<Counter> counters = {})
    {
        if (t_) {
            t_->close(id_, nowNs(), counters);
            t_ = nullptr;
        }
    }

  private:
    Tracer *t_;
    Tracer::SpanId id_;
};

} // namespace pushtap::bench
