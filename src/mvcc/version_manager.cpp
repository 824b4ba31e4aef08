#include "mvcc/version_manager.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/log.hpp"

namespace pushtap::mvcc {

std::uint32_t
VersionArena::pushBack(Timestamp write_ts, RowId row,
                       RowId delta_slot, std::uint32_t prev)
{
    const std::size_t idx = count_.load(std::memory_order_relaxed);
    const std::size_t c = idx >> kChunkBits;
    if (c >= dirCap_)
        fatal("version arena exhausted ({} entries)", idx);
    VersionMeta *chunk = chunks_[c].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
        chunk = new VersionMeta[kChunkRows];
        chunks_[c].store(chunk, std::memory_order_release);
    }
    VersionMeta &v = chunk[idx & (kChunkRows - 1)];
    v.writeTs = write_ts;
    v.readTs.store(write_ts, std::memory_order_relaxed);
    v.rowId = row;
    v.deltaSlot = delta_slot;
    v.prev = prev;
    // Publish: readers that observe the new count (acquire) also see
    // the chunk pointer and every field written above.
    count_.store(idx + 1, std::memory_order_release);
    return static_cast<std::uint32_t>(idx);
}

void
VersionArena::freeChunks()
{
    for (std::size_t c = 0; c < dirCap_; ++c) {
        delete[] chunks_[c].load(std::memory_order_relaxed);
        chunks_[c].store(nullptr, std::memory_order_relaxed);
    }
}

VersionManager::VersionManager(
    const format::BlockCirculant &circulant,
    std::uint64_t delta_capacity, std::uint64_t data_rows)
    : circulant_(circulant), deltaCapacity_(delta_capacity),
      classes_(circulant.enabled() ? circulant.devices() : 1),
      blockRows_(circulant.enabled() ? circulant.blockRows() : 1),
      allocated_(std::make_unique<ClassCount[]>(classes_)),
      arena_(delta_capacity), dataRows_(data_rows),
      heads_(std::make_unique<std::atomic<std::uint32_t>[]>(data_rows))
{
    for (std::uint64_t r = 0; r < dataRows_; ++r)
        heads_[r].store(kNoVersion, std::memory_order_relaxed);
}

RowId
VersionManager::slotOf(std::uint32_t cls, std::uint64_t k) const
{
    const std::uint64_t block = cls + (k / blockRows_) * classes_;
    return block * blockRows_ + k % blockRows_;
}

RowId
VersionManager::allocDeltaSlot(RowId data_row)
{
    // CAS loop rather than fetch_add: a failed claim leaves the count
    // untouched, so it never passes the capacity guard. The count
    // orders nothing else, so relaxed suffices.
    const std::uint32_t cls = rotationClassOf(data_row);
    std::atomic<std::uint64_t> &count = allocated_[cls].n;
    std::uint64_t k = count.load(std::memory_order_relaxed);
    for (;;) {
        const RowId slot = slotOf(cls, k);
        if (slot >= deltaCapacity_)
            fatal("delta region exhausted ({} of {} rows); "
                  "defragmentation overdue",
                  deltaUsed(), deltaCapacity_);
        if (count.compare_exchange_weak(k, k + 1,
                                        std::memory_order_relaxed))
            return slot;
    }
}

std::uint64_t
VersionManager::deltaUsed() const
{
    std::uint64_t used = 0;
    for (std::uint32_t cls = 0; cls < classes_; ++cls)
        used += allocated_[cls].n.load(std::memory_order_relaxed);
    return used;
}

std::uint64_t
VersionManager::slotBoundWithExtra(
    const std::vector<std::uint64_t> &extra_per_class) const
{
    if (extra_per_class.size() != classes_)
        fatal("slotBoundWithExtra: {} classes given, {} expected",
              extra_per_class.size(), classes_);

    std::uint64_t bound = 0;
    for (std::uint32_t cls = 0; cls < classes_; ++cls) {
        const std::uint64_t k = extra_per_class[cls];
        if (k == 0)
            continue;
        // Where the k-th future allocation of this class lands.
        const std::uint64_t done =
            allocated_[cls].n.load(std::memory_order_relaxed);
        bound = std::max(bound, slotOf(cls, done + k - 1) + 1);
    }
    if (bound > deltaCapacity_)
        fatal("delta region cannot hold the scheduled batch "
              "(needs {} of {} rows); defragment first or raise "
              "deltaFraction",
              bound, deltaCapacity_);
    return bound;
}

std::uint32_t
VersionManager::addVersion(RowId data_row, RowId delta_slot,
                           Timestamp write_ts)
{
    if (data_row >= dataRows_)
        fatal("version of row {} beyond the data region ({} rows)",
              data_row, dataRows_);
    std::lock_guard<std::mutex> guard(mu_);

    // Heads only change under mu_, so a relaxed load sees the latest.
    std::atomic<std::uint32_t> &head = heads_[data_row];
    const std::uint32_t prev = head.load(std::memory_order_relaxed);
    if (prev != kNoVersion && write_ts < arena_[prev].writeTs)
        fatal("non-monotonic commit timestamp {} < {} for row {}",
              write_ts, arena_[prev].writeTs, data_row);

    // Track whether arena append order still equals commit order;
    // concurrent partitions interleave and latch this false, which
    // switches the snapshotter to its order-insensitive scan.
    if (write_ts < lastAppendTs_)
        commitOrdered_.store(false, std::memory_order_release);
    else
        lastAppendTs_ = write_ts;

    const std::uint32_t idx =
        arena_.pushBack(write_ts, data_row, delta_slot, prev);
    // Publish: a reader that loads this head (acquire) also sees the
    // entry's fields and its chunk pointer.
    head.store(idx, std::memory_order_release);
    return idx;
}

bool
VersionManager::hasVersions(RowId data_row) const
{
    return headOf(data_row) != kNoVersion;
}

VersionLookup
VersionManager::locateVisible(RowId data_row, Timestamp ts)
{
    VersionLookup lk{storage::Region::Data, data_row, 0};
    // The prev-chain below the head is immutable: walk lock-free.
    std::uint32_t idx = headOf(data_row);
    while (idx != kNoVersion) {
        ++lk.chainSteps;
        const VersionMeta &v = arena_[idx];
        if (v.writeTs <= ts) {
            Timestamp seen = v.readTs.load(std::memory_order_relaxed);
            while (ts > seen &&
                   !v.readTs.compare_exchange_weak(
                       seen, ts, std::memory_order_relaxed)) {
            }
            lk.region = storage::Region::Delta;
            lk.row = v.deltaSlot;
            return lk;
        }
        idx = v.prev;
    }
    // All delta versions are newer than ts: origin row is visible.
    return lk;
}

VersionLookup
VersionManager::locateNewest(RowId data_row) const
{
    const std::uint32_t head = headOf(data_row);
    if (head == kNoVersion)
        return {storage::Region::Data, data_row, 0};
    return {storage::Region::Delta, arena_[head].deltaSlot, 1};
}

void
VersionManager::reset()
{
    // Wait out every epoch-pinned chain walk before freeing metadata.
    epochs_.synchronize();
    std::lock_guard<std::mutex> guard(mu_);
    // Only rows with a version can hold a head: sweep the arena.
    for (const VersionMeta &v : arena_)
        heads_[v.rowId].store(kNoVersion, std::memory_order_relaxed);
    arena_.clear();
    for (std::uint32_t cls = 0; cls < classes_; ++cls)
        allocated_[cls].n.store(0, std::memory_order_relaxed);
    lastAppendTs_ = 0;
    commitOrdered_.store(true, std::memory_order_release);
}

} // namespace pushtap::mvcc
