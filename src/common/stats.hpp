#pragma once

/**
 * @file
 * Lightweight statistics accumulators used by engines and benches:
 * scalar counters, mean/min/max accumulators, and named breakdowns
 * (e.g. the Fig. 11(c)/(d) time decompositions).
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace pushtap {

/** Running mean / min / max / count accumulator. */
class Accumulator
{
  public:
    void
    add(double v)
    {
        sum_ += v;
        sumSq_ += v * v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
        ++n_;
    }

    std::uint64_t count() const { return n_; }
    double sum() const { return sum_; }
    double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    double
    stddev() const
    {
        if (n_ < 2)
            return 0.0;
        const double m = mean();
        const double var =
            sumSq_ / static_cast<double>(n_) - m * m;
        return var > 0.0 ? std::sqrt(var) : 0.0;
    }

    void
    reset()
    {
        *this = Accumulator{};
    }

  private:
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
    std::uint64_t n_ = 0;
};

/**
 * Named additive breakdown, e.g. transaction time split into
 * {compute, allocation, indexing, chain-traverse}. Keys are ordered so
 * reports are deterministic.
 */
class Breakdown
{
  public:
    void
    add(const std::string &component, double v)
    {
        parts_[component] += v;
    }

    double
    get(const std::string &component) const
    {
        auto it = parts_.find(component);
        return it == parts_.end() ? 0.0 : it->second;
    }

    double
    total() const
    {
        double t = 0.0;
        for (const auto &[k, v] : parts_)
            t += v;
        return t;
    }

    /** Fraction of the total attributed to @p component (0 if empty). */
    double
    fraction(const std::string &component) const
    {
        const double t = total();
        return t > 0.0 ? get(component) / t : 0.0;
    }

    const std::map<std::string, double> &parts() const { return parts_; }

    void
    merge(const Breakdown &o)
    {
        for (const auto &[k, v] : o.parts_)
            parts_[k] += v;
    }

    void reset() { parts_.clear(); }

  private:
    std::map<std::string, double> parts_;
};

/**
 * Breakdown over a fixed component set, for hot paths: a charge is
 * one indexed add instead of a string-keyed map update. @p Names
 * lists the component names in ascending order and the enum @p Slot
 * indexes them. total() and merge() walk the slots in that order, so
 * they sum exactly as Breakdown's ordered map does and both produce
 * bit-identical numbers (an unused slot adds +0.0).
 */
template <typename Slot, const auto &Names>
class SlotBreakdown
{
  public:
    static constexpr std::size_t kSlots = std::size(Names);
    static_assert(std::is_sorted(std::begin(Names), std::end(Names)),
                  "slot names must be in ascending order");

    void
    add(Slot s, double v)
    {
        parts_[static_cast<std::size_t>(s)] += v;
    }

    double get(Slot s) const { return parts_[static_cast<std::size_t>(s)]; }

    /** Component by name; 0 for a name outside the set. */
    double
    get(std::string_view component) const
    {
        for (std::size_t i = 0; i < kSlots; ++i)
            if (Names[i] == component)
                return parts_[i];
        return 0.0;
    }

    double
    total() const
    {
        double t = 0.0;
        for (const double v : parts_)
            t += v;
        return t;
    }

    void
    merge(const SlotBreakdown &o)
    {
        for (std::size_t i = 0; i < kSlots; ++i)
            parts_[i] += o.parts_[i];
    }

  private:
    std::array<double, kSlots> parts_{};
};

} // namespace pushtap
