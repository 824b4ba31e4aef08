#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>

#include "format/bandwidth.hpp"
#include "olap/olap_engine.hpp"
#include "olap/operators.hpp"
#include "txn/tpcc_engine.hpp"
#include "workload/query_catalog.hpp"

namespace pushtap::olap {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** FNV-1a over the little-endian bytes of one 64-bit word. */
std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t word)
{
    for (int b = 0; b < 8; ++b)
        h = (h ^ static_cast<std::uint8_t>(word >> (8 * b))) *
            kFnvPrime;
    return h;
}

std::uint64_t
fnv1a(std::uint64_t h, double value)
{
    return fnv1a(h, std::bit_cast<std::uint64_t>(value));
}

TEST(PricingPins, CatalogDecompositionIsBitIdentical)
{
    // The modelled clock, pinned: the snapshot charge, and for every
    // catalog plan its visible rows and the per-operator pricing walk
    // runQuery charges. The instance format only prices transactions,
    // so one format covers the analytical side.
    constexpr std::uint64_t kCatalogHash = 0x31aecb68ff88c34eull;
    constexpr double kQ1 = 0x1.0e69e99873683p+14;
    constexpr double kQ6 = 0x1.716ca647c8a79p+13;
    constexpr double kQ9 = 0x1.081916e858697p+16;

    txn::DatabaseConfig dcfg;
    dcfg.scale = 0.0002;
    dcfg.blockRows = 64;
    dcfg.deltaFraction = 3.0;
    dcfg.insertHeadroom = 1.0;
    txn::Database db(dcfg);
    const format::BandwidthModel bw(8, 8, true);
    const dram::BatchTimingModel timing(dram::Geometry::dimmDefault(),
                                        dram::TimingParams::ddr5_3200());
    txn::TpccEngine oltp(db, txn::InstanceFormat::Unified, bw, timing,
                         29);
    for (int i = 0; i < 40; ++i)
        oltp.executeMixed();

    auto cfg = OlapConfig::pushtapDimm();
    cfg.workers = 1;
    OlapEngine engine(db, cfg);
    std::uint64_t h = fnv1a(kFnvOffset, engine.prepareSnapshot(db.now()));

    std::map<int, double> total;
    for (const auto &q : workload::chExecutablePlans()) {
        const std::uint64_t rows = executePlan(db, q.plan).rowsVisible;
        h = fnv1a(h, rows);
        const auto rep = engine.pricePlan(q.plan, rows);
        h = fnv1a(h, rep.pimNs);
        h = fnv1a(h, rep.cpuNs);
        h = fnv1a(h, rep.cpuBlockedNs);
        total[q.queryNo] = rep.pimNs + rep.cpuNs;
    }
    EXPECT_EQ(h, kCatalogHash);
    EXPECT_EQ(total[1], kQ1);
    EXPECT_EQ(total[6], kQ6);
    EXPECT_EQ(total[9], kQ9);
}

} // namespace
} // namespace pushtap::olap
