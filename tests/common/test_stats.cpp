#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/stats.hpp"
#include "common/table_printer.hpp"
#include "common/units.hpp"

namespace pushtap {
namespace {

TEST(Accumulator, EmptyIsZero)
{
    Accumulator a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.min(), 0.0);
    EXPECT_EQ(a.max(), 0.0);
}

TEST(Accumulator, BasicMoments)
{
    Accumulator a;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        a.add(v);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.5);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 4.0);
    EXPECT_NEAR(a.stddev(), 1.118, 1e-3);
}

TEST(Accumulator, ResetClears)
{
    Accumulator a;
    a.add(10.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.sum(), 0.0);
}

TEST(Breakdown, FractionsSumToOne)
{
    Breakdown b;
    b.add("compute", 30.0);
    b.add("alloc", 50.0);
    b.add("index", 20.0);
    EXPECT_DOUBLE_EQ(b.total(), 100.0);
    EXPECT_DOUBLE_EQ(b.fraction("compute") + b.fraction("alloc") +
                         b.fraction("index"),
                     1.0);
}

TEST(Breakdown, MissingComponentIsZero)
{
    Breakdown b;
    b.add("x", 1.0);
    EXPECT_EQ(b.get("y"), 0.0);
    EXPECT_EQ(b.fraction("y"), 0.0);
}

TEST(Breakdown, MergeAddsComponents)
{
    Breakdown a, b;
    a.add("x", 1.0);
    b.add("x", 2.0);
    b.add("y", 3.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 3.0);
}

enum class Part : std::uint8_t
{
    Alpha,
    Beta,
    Gamma,
};
constexpr std::array<std::string_view, 3> kPartNames = {"alpha", "beta",
                                                        "gamma"};
using Parts = SlotBreakdown<Part, kPartNames>;

TEST(SlotBreakdown, LooksUpByNameAndSlot)
{
    Parts b;
    b.add(Part::Beta, 2.5);
    b.add(Part::Beta, 1.0);
    EXPECT_EQ(b.get(Part::Beta), 3.5);
    EXPECT_EQ(b.get("beta"), 3.5);
    EXPECT_EQ(b.get("alpha"), 0.0);
    EXPECT_EQ(b.get("delta"), 0.0);
}

TEST(SlotBreakdown, SumsBitIdenticalToBreakdown)
{
    // Values whose sum depends on the order of addition: the slot
    // form must reproduce the ordered map's rounding exactly, with
    // unused slots and merges included.
    const double v[] = {0.1, 1e16, 3.3, -1e16, 7e-3, 0.2};
    Parts slots, slots_other;
    Breakdown map, map_other;
    for (int i = 0; i < 6; ++i) {
        const Part p = i % 2 == 0 ? Part::Gamma : Part::Alpha;
        slots.add(p, v[i]);
        map.add(std::string(kPartNames[static_cast<int>(p)]), v[i]);
    }
    slots_other.add(Part::Beta, 0.3);
    map_other.add("beta", 0.3);
    slots.merge(slots_other);
    map.merge(map_other);
    for (const auto name : kPartNames)
        EXPECT_EQ(slots.get(name), map.get(std::string(name))) << name;
    EXPECT_EQ(slots.total(), map.total());
}

TEST(Bandwidth, TransferTimeInvertsBandwidth)
{
    const auto bw = Bandwidth::gbPerSec(2.0);
    EXPECT_DOUBLE_EQ(bw.transferTime(2000), 1000.0); // 2 kB at 2 B/ns
}

TEST(Bandwidth, FromTransferRoundTrips)
{
    const auto bw = Bandwidth::fromTransfer(64, 2.5);
    EXPECT_NEAR(bw.gbPerSecValue(), 25.6, 1e-9);
}

TEST(Bandwidth, ZeroBandwidthSafe)
{
    const Bandwidth bw;
    EXPECT_EQ(bw.transferTime(100), 0.0);
}

TEST(TablePrinter, RendersAlignedRows)
{
    TablePrinter t({"a", "long-header"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    const std::string out = t.render();
    EXPECT_NE(out.find("| a   | long-header |"), std::string::npos);
    EXPECT_NE(out.find("| 333 | 4           |"), std::string::npos);
}

TEST(TablePrinter, NumFormatsPrecision)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

} // namespace
} // namespace pushtap
