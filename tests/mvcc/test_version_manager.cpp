#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"

#include "mvcc/version_manager.hpp"

namespace pushtap::mvcc {
namespace {

class VersionManagerTest : public ::testing::Test
{
  protected:
    format::BlockCirculant circ{4, 8}; // 4 devices, 8-row blocks
    VersionManager vm{circ, 256, 64};
};

TEST_F(VersionManagerTest, AllocPreservesRotation)
{
    // Data rows in different blocks must get delta slots in blocks of
    // the same rotation class (section 5.1).
    for (RowId data_row : {RowId{0}, RowId{9}, RowId{17}, RowId{25},
                           RowId{3}, RowId{11}}) {
        const RowId slot = vm.allocDeltaSlot(data_row);
        EXPECT_EQ(circ.blockOf(data_row) % 4, circ.blockOf(slot) % 4)
            << "data row " << data_row << " slot " << slot;
    }
}

TEST_F(VersionManagerTest, SlotsUniqueAcrossAllocations)
{
    std::set<RowId> slots;
    for (int i = 0; i < 100; ++i) {
        const RowId slot =
            vm.allocDeltaSlot(static_cast<RowId>(i % 32));
        EXPECT_TRUE(slots.insert(slot).second)
            << "duplicate slot " << slot;
    }
    EXPECT_EQ(vm.deltaUsed(), 100u);
}

TEST_F(VersionManagerTest, ChainBuildsNewestFirst)
{
    const RowId row = 5;
    const auto s1 = vm.allocDeltaSlot(row);
    vm.addVersion(row, s1, 10);
    const auto s2 = vm.allocDeltaSlot(row);
    vm.addVersion(row, s2, 20);

    const auto newest = vm.locateNewest(row);
    EXPECT_EQ(newest.region, storage::Region::Delta);
    EXPECT_EQ(newest.row, s2);
}

TEST_F(VersionManagerTest, VisibilityByTimestamp)
{
    const RowId row = 5;
    const auto s1 = vm.allocDeltaSlot(row);
    vm.addVersion(row, s1, 10);
    const auto s2 = vm.allocDeltaSlot(row);
    vm.addVersion(row, s2, 20);

    // Before the first version: the origin row.
    auto lk = vm.locateVisible(row, 5);
    EXPECT_EQ(lk.region, storage::Region::Data);
    EXPECT_EQ(lk.row, row);
    // Between versions.
    lk = vm.locateVisible(row, 15);
    EXPECT_EQ(lk.region, storage::Region::Delta);
    EXPECT_EQ(lk.row, s1);
    // After both.
    lk = vm.locateVisible(row, 25);
    EXPECT_EQ(lk.row, s2);
}

TEST_F(VersionManagerTest, ChainStepsCounted)
{
    const RowId row = 7;
    for (Timestamp ts = 1; ts <= 4; ++ts)
        vm.addVersion(row, vm.allocDeltaSlot(row), ts);
    // Looking for ts=1 walks from the newest (4 hops to v1).
    const auto lk = vm.locateVisible(row, 1);
    EXPECT_EQ(lk.chainSteps, 4u);
}

TEST_F(VersionManagerTest, ReadTimestampAdvances)
{
    const RowId row = 2;
    vm.addVersion(row, vm.allocDeltaSlot(row), 10);
    vm.locateVisible(row, 99);
    EXPECT_EQ(vm.versions()[0].readTs, 99u);
    // Older read does not regress it.
    vm.locateVisible(row, 50);
    EXPECT_EQ(vm.versions()[0].readTs, 99u);
}

TEST_F(VersionManagerTest, UnversionedRowResolvesToData)
{
    const auto lk = vm.locateNewest(42);
    EXPECT_EQ(lk.region, storage::Region::Data);
    EXPECT_EQ(lk.row, 42u);
    EXPECT_EQ(lk.chainSteps, 0u);
}

TEST_F(VersionManagerTest, MonotonicTimestampsEnforced)
{
    const RowId row = 1;
    vm.addVersion(row, vm.allocDeltaSlot(row), 10);
    EXPECT_THROW(vm.addVersion(row, 0, 5), pushtap::FatalError);
}

TEST_F(VersionManagerTest, CapacityExhaustionIsFatal)
{
    VersionManager tiny(circ, 8, 8);
    // Rotation class 0 owns blocks 0, 4, 8...; capacity 8 rows means
    // only block 0 fits.
    for (int i = 0; i < 8; ++i)
        tiny.allocDeltaSlot(0);
    EXPECT_THROW(tiny.allocDeltaSlot(0), pushtap::FatalError);
}

TEST_F(VersionManagerTest, ResetClearsEverything)
{
    vm.addVersion(3, vm.allocDeltaSlot(3), 10);
    vm.reset();
    EXPECT_EQ(vm.deltaUsed(), 0u);
    EXPECT_TRUE(vm.versions().empty());
    EXPECT_FALSE(vm.hasVersions(3));
    // Slots are reusable after reset.
    EXPECT_EQ(vm.allocDeltaSlot(0), 0u);
}

TEST_F(VersionManagerTest, MetadataBytesTrack16PerVersion)
{
    EXPECT_EQ(kMetadataBytes, 16u);
    vm.addVersion(1, vm.allocDeltaSlot(1), 1);
    vm.addVersion(2, vm.allocDeltaSlot(2), 2);
    EXPECT_EQ(vm.metadataBytes(), 32u);
}

TEST_F(VersionManagerTest, CrossRowTimestampsMayInterleave)
{
    // Concurrent partitions append in arrival order, which need not
    // be global commit order — only per-row order is enforced.
    vm.addVersion(1, vm.allocDeltaSlot(1), 10);
    EXPECT_TRUE(vm.appendsCommitOrdered());
    vm.addVersion(2, vm.allocDeltaSlot(2), 5); // older, other row: OK
    EXPECT_FALSE(vm.appendsCommitOrdered());
    // Both chains resolve independently of the interleaving.
    EXPECT_EQ(vm.locateVisible(1, 100).region,
              storage::Region::Delta);
    EXPECT_EQ(vm.locateVisible(2, 100).region,
              storage::Region::Delta);
    EXPECT_EQ(vm.locateVisible(2, 4).region, storage::Region::Data);
    // reset() restores the commit-ordered fast path.
    vm.reset();
    EXPECT_TRUE(vm.appendsCommitOrdered());
}

TEST_F(VersionManagerTest, ForEachHeadVisitsNewestPerRow)
{
    vm.addVersion(3, vm.allocDeltaSlot(3), 10);
    const auto second = vm.addVersion(3, vm.allocDeltaSlot(3), 20);
    const auto other = vm.addVersion(7, vm.allocDeltaSlot(7), 30);
    std::map<RowId, std::uint32_t> heads;
    vm.forEachHead([&](RowId row, std::uint32_t head) {
        heads[row] = head;
    });
    ASSERT_EQ(heads.size(), 2u);
    EXPECT_EQ(heads[3], second);
    EXPECT_EQ(heads[7], other);
}

TEST_F(VersionManagerTest, AddVersionBeyondDataRegionIsFatal)
{
    // The fixture provisions 64 data rows: row 64 has no head.
    EXPECT_THROW(vm.addVersion(64, 0, 1), FatalError);
    EXPECT_TRUE(vm.versions().empty());
    EXPECT_FALSE(vm.hasVersions(64));
    EXPECT_EQ(vm.locateNewest(64).region, storage::Region::Data);
    vm.addVersion(63, vm.allocDeltaSlot(63), 1);
    EXPECT_TRUE(vm.hasVersions(63));
}

TEST_F(VersionManagerTest, ForEachHeadMatchesMapReference)
{
    // Random rows with repeats, over two reset() cycles: the heads
    // the arena sweep reports must equal a reference map of each
    // row's last append, visited in ascending arena index.
    pushtap::Rng rng(11);
    for (int cycle = 0; cycle < 2; ++cycle) {
        std::map<RowId, std::uint32_t> ref;
        for (Timestamp ts = 1; ts <= 120; ++ts) {
            const RowId r = rng.below(48);
            ref[r] = vm.addVersion(r, vm.allocDeltaSlot(r), ts);
        }
        std::map<RowId, std::uint32_t> heads;
        std::vector<std::uint32_t> order;
        const std::size_t swept =
            vm.forEachHead([&](RowId row, std::uint32_t head) {
                EXPECT_TRUE(heads.emplace(row, head).second)
                    << "row " << row << " visited twice";
                order.push_back(head);
            });
        EXPECT_EQ(swept, vm.versions().size());
        EXPECT_EQ(heads, ref) << "cycle " << cycle;
        EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
        for (RowId r = 0; r < 64; ++r) {
            const auto it = ref.find(r);
            const auto lk = vm.locateNewest(r);
            if (it == ref.end()) {
                EXPECT_EQ(lk.region, storage::Region::Data);
            } else {
                EXPECT_EQ(lk.region, storage::Region::Delta);
                EXPECT_EQ(lk.row, vm.versions()[it->second].deltaSlot);
            }
        }
        vm.reset();
        for (const auto &[row, head] : ref)
            EXPECT_FALSE(vm.hasVersions(row)) << "row " << row;
        EXPECT_EQ(vm.forEachHead([](RowId, std::uint32_t) {}), 0u);
    }
}

TEST_F(VersionManagerTest, SlotBoundPredictsAllocations)
{
    // Ask for the bound of a batch, then actually allocate it: no
    // slot may land at or beyond the promised bound.
    std::vector<std::uint64_t> extra(4, 0);
    std::vector<RowId> rows = {0, 9, 17, 25, 3, 11, 0, 9, 1, 2};
    for (const RowId r : rows)
        ++extra[vm.rotationClassOf(r)];
    const std::uint64_t bound = vm.slotBoundWithExtra(extra);
    RowId max_slot = 0;
    for (const RowId r : rows)
        max_slot = std::max(max_slot, vm.allocDeltaSlot(r));
    EXPECT_LT(max_slot, bound);
    EXPECT_LE(bound, vm.deltaCapacity());
}

TEST_F(VersionManagerTest, ConcurrentClaimsTakeTheSerialSlots)
{
    // Writers claim delta slots lock-free. Together they must take
    // each rotation class's first slots exactly once: the slots one
    // writer making the same number of claims per class gets.
    constexpr int kThreads = 4;
    constexpr int kClaims = 500;
    VersionManager shared{circ, 4096, 64};
    std::vector<std::vector<std::pair<RowId, RowId>>> claims(kThreads);
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t)
        writers.emplace_back([&shared, &claims, t] {
            for (int i = 0; i < kClaims; ++i) {
                const auto row = static_cast<RowId>((t * 13 + i * 7) % 64);
                claims[t].emplace_back(row, shared.allocDeltaSlot(row));
            }
        });
    for (auto &w : writers)
        w.join();
    EXPECT_EQ(shared.deltaUsed(),
              static_cast<std::uint64_t>(kThreads * kClaims));

    std::map<std::uint32_t, std::vector<RowId>> by_class;
    for (const auto &claimed : claims)
        for (const auto &[row, slot] : claimed)
            by_class[shared.rotationClassOf(row)].push_back(slot);
    VersionManager serial{circ, 4096, 64};
    for (auto &[cls, slots] : by_class) {
        std::sort(slots.begin(), slots.end());
        // Data row cls * 8 opens block cls, of rotation class cls.
        std::vector<RowId> want;
        for (std::size_t i = 0; i < slots.size(); ++i)
            want.push_back(serial.allocDeltaSlot(RowId{cls} * 8));
        EXPECT_EQ(slots, want) << "class " << cls;
    }
}

TEST_F(VersionManagerTest, SlotBoundOverCapacityIsFatal)
{
    VersionManager tiny{format::BlockCirculant(4, 8), 8, 8};
    std::vector<std::uint64_t> extra(4, 0);
    extra[0] = 100;
    EXPECT_THROW(tiny.slotBoundWithExtra(extra), FatalError);
}

TEST_F(VersionManagerTest, ConcurrentReadersSeePublishedVersions)
{
    // One writer appends versions of distinct rows with increasing
    // timestamps while readers locate them and walk their chains;
    // every row observed by a reader must resolve exactly (TSan
    // hardens this further). Row r's versions commit at r, r+32,
    // r+64, r+96 (row 0 at 32, 64, 96, 128).
    constexpr RowId kRows = 32;
    constexpr Timestamp kLastTs = 128;
    // Commit timestamp of the version in each delta slot, stored
    // before the version is published.
    std::vector<std::atomic<Timestamp>> slot_ts(vm.deltaCapacity());
    constexpr int kReaders = 3;
    std::atomic<int> ready{0};
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> bad{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t) {
        readers.emplace_back([&] {
            ready.fetch_add(1, std::memory_order_release);
            while (!stop.load(std::memory_order_acquire)) {
                for (RowId r = 0; r < kRows; ++r) {
                    if (!vm.hasVersions(r))
                        continue;
                    if (vm.locateNewest(r).region !=
                        storage::Region::Delta)
                        bad.fetch_add(1, std::memory_order_relaxed);
                    const Timestamp first = r == 0 ? kRows : r;
                    for (const Timestamp at :
                         {first - 1, first, first + kRows, kLastTs}) {
                        const auto lk = vm.locateVisible(r, at);
                        if (at < first) {
                            if (lk.region != storage::Region::Data)
                                bad.fetch_add(
                                    1, std::memory_order_relaxed);
                            continue;
                        }
                        const Timestamp ts =
                            lk.region == storage::Region::Delta
                                ? slot_ts[lk.row].load(
                                      std::memory_order_relaxed)
                                : 0;
                        if (ts == 0 || ts > at || ts % kRows != r ||
                            lk.chainSteps == 0 || lk.chainSteps > 4)
                            bad.fetch_add(
                                1, std::memory_order_relaxed);
                    }
                }
            }
        });
    }
    // Start appending only once every reader is spinning.
    while (ready.load(std::memory_order_acquire) < kReaders)
        std::this_thread::yield();
    for (Timestamp ts = 1; ts <= kLastTs; ++ts) {
        const RowId row = ts % kRows;
        const RowId slot = vm.allocDeltaSlot(row);
        slot_ts[slot].store(ts, std::memory_order_relaxed);
        vm.addVersion(row, slot, ts);
    }
    stop.store(true, std::memory_order_release);
    for (auto &t : readers)
        t.join();
    EXPECT_EQ(bad.load(), 0u);
}

} // namespace
} // namespace pushtap::mvcc
