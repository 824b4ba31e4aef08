#pragma once

/**
 * @file
 * Deterministic CH-benCHmark data generator. Values follow the TPC-C
 * population rules closely enough that the analytical queries have
 * meaningful selectivities (delivery dates spread over a date range,
 * quantities in [1, 10], item data with "ORIGINAL" markers, ...), and
 * every value is a pure function of (seed, table, row), so benches
 * and tests are reproducible and rows can be regenerated for
 * verification without storing a reference copy.
 */

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "workload/ch_schema.hpp"
#include "workload/row_view.hpp"

namespace pushtap::workload {

/** Epoch base for generated dates (arbitrary, fixed). */
inline constexpr std::int64_t kDateBase = 1'000'000;

/** Orders per district scale unit; 10 orderlines per order. */
inline constexpr std::uint64_t kLinesPerOrder = 10;

class ChGenerator
{
  public:
    explicit ChGenerator(std::uint64_t seed, double scale = 0.001);

    double scale() const { return scale_; }

    const std::map<ChTable, std::uint64_t> &
    rowCounts() const
    {
        return counts_;
    }

    std::uint64_t
    rows(ChTable t) const
    {
        return counts_.at(t);
    }

    /**
     * Fill the canonical bytes of row @p r of table @p t. @p schema
     * must be (an extension of) chTableSchema(t); extension columns
     * are zero-filled.
     */
    void fillRow(ChTable t, const format::TableSchema &schema, RowId r,
                 std::span<std::uint8_t> row) const;

  private:
    /** Per-row deterministic stream. */
    Rng
    rowRng(ChTable t, RowId r) const
    {
        SplitMix64 sm(seed_ ^
                      (static_cast<std::uint64_t>(t) << 56) ^ r);
        return Rng(sm.next());
    }

    std::uint64_t seed_;
    double scale_;
    std::map<ChTable, std::uint64_t> counts_;
    /** The row counts fillRow reads, looked up once. */
    std::uint64_t nWarehouses_, nDistricts_, nCustomers_, nItems_,
        nOrders_;
};

} // namespace pushtap::workload
