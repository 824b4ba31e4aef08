#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>

#include "htap/pushtap_db.hpp"

namespace pushtap::htap {
namespace {

using storage::Region;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t
fnv1a(std::uint64_t h, std::span<const std::uint8_t> bytes)
{
    for (const std::uint8_t b : bytes)
        h = (h ^ b) * kFnvPrime;
    return h;
}

std::uint64_t
fnv1a(std::uint64_t h, const Bitmap &bits)
{
    for (const std::uint64_t w : bits.words())
        for (int b = 0; b < 8; ++b)
            h = (h ^ static_cast<std::uint8_t>(w >> (8 * b))) *
                kFnvPrime;
    return h;
}

/**
 * FNV-1a over everything defragmentation can write: every table's
 * part bytes in both regions, both visibility bitmaps and the packed
 * dictionary codes of the data region.
 */
std::uint64_t
databaseHash(const txn::Database &db)
{
    std::uint64_t h = kFnvOffset;
    for (std::size_t t = 0; t < workload::kChTableCount; ++t) {
        const auto &store =
            db.table(static_cast<workload::ChTable>(t)).store();
        const auto &layout = store.layout();
        for (const Region reg : {Region::Data, Region::Delta})
            for (std::uint32_t p = 0; p < layout.parts().size(); ++p)
                for (std::uint32_t d = 0; d < layout.devices(); ++d)
                    h = fnv1a(h, store.partBytes(reg, p, d));
        h = fnv1a(h, store.dataVisible());
        h = fnv1a(h, store.deltaVisible());
        for (ColumnId c = 0; c < store.schema().columns().size(); ++c)
            if (store.dictionary(c) != nullptr)
                h = fnv1a(h, store.dictDataCodes(c));
    }
    return h;
}

/** One pass's DefragStats, bit for bit. */
struct PassPin
{
    std::uint64_t deltaRows;
    std::uint64_t rowsCopied;
    std::uint64_t chainSteps;
    Bytes bytesMoved;
    TimeNs timeNs;
};

TEST(DefragPins, MixedRunIsBitIdenticalPerFormat)
{
    // Defragmentation's observable output, pinned: the order a pass
    // walks the version store in and how it re-encodes dictionary
    // codes must never move a statistic, a modelled nanosecond or a
    // database byte. The instance format prices transactions but
    // stores the same bytes, so every format pins the same values.
    constexpr PassPin kPasses[] = {
        {5666, 4353, 5666, 807984, 0x1.a90d2aefe841ep+13},
        {5419, 4210, 5419, 791472, 0x1.96794da51bb16p+13},
        {5362, 4105, 5362, 765200, 0x1.90d0d0bb3b415p+13},
    };
    constexpr std::uint64_t kFinalHash = 0xd442b161164b366dull;

    for (const txn::InstanceFormat fmt :
         {txn::InstanceFormat::Unified, txn::InstanceFormat::RowStore,
          txn::InstanceFormat::ColumnStore}) {
        SCOPED_TRACE(static_cast<int>(fmt));
        PushtapOptions opts;
        opts.database.scale = 0.001;
        opts.database.seed = 42;
        opts.format = fmt;
        opts.txnSeed = 7;
        opts.defragInterval = 0; // passes run exactly where asked
        PushtapDB db(opts);
        for (const PassPin &want : kPasses) {
            // A snapshot mid-pass flips bitmaps the pass must repair.
            db.mixed(200);
            db.olap().prepareSnapshot(db.database().now());
            db.mixed(200);
            db.defragment();
            const mvcc::DefragStats &got = db.olap().lastDefragStats();
            EXPECT_EQ(got.deltaRows, want.deltaRows);
            EXPECT_EQ(got.rowsCopied, want.rowsCopied);
            EXPECT_EQ(got.chainSteps, want.chainSteps);
            EXPECT_EQ(got.bytesMoved, want.bytesMoved);
            EXPECT_EQ(got.timeNs, want.timeNs);
        }
        // Live versions on top of the recycled delta region.
        db.mixed(100);
        db.olap().prepareSnapshot(db.database().now());
        EXPECT_EQ(databaseHash(db.database()), kFinalHash);
    }
}

} // namespace
} // namespace pushtap::htap
