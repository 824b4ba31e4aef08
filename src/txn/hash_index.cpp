#include "txn/hash_index.hpp"

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>

#include "common/log.hpp"

namespace pushtap::txn {

namespace {

std::size_t
roundUpPow2(std::size_t n)
{
    std::size_t p = 16;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

void
packKeyOverflow(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    fatal("packKey overflow: a={} (max {}), b={} (max {}), c={} "
          "(max {})",
          a, kPackKeyMaxA, b, kPackKeyMaxB, c, kPackKeyMaxC);
}

HashIndex::HashIndex(std::size_t expected_entries)
{
    arrays_.push_back(std::make_unique<SlotArray>(
        roundUpPow2(expected_entries * 2)));
    cur_.store(arrays_.back().get(), std::memory_order_release);
}

std::uint64_t
HashIndex::mix(std::uint64_t k)
{
    k ^= k >> 33;
    k *= 0xff51afd7ed558ccdULL;
    k ^= k >> 33;
    k *= 0xc4ceb9fe1a85ec53ULL;
    k ^= k >> 33;
    return k;
}

void
HashIndex::placeLocked(SlotArray &arr, std::uint64_t key, RowId row)
{
    const std::size_t mask = arr.capacity - 1;
    std::size_t i = mix(key) & mask;
    while (arr.slots[i].row.load(std::memory_order_relaxed) !=
               kInvalidRow &&
           arr.slots[i].key.load(std::memory_order_relaxed) != key)
        i = (i + 1) & mask;
    // Key first, row last with release: a reader that observes the
    // occupied row is guaranteed to read the matching key.
    arr.slots[i].key.store(key, std::memory_order_relaxed);
    arr.slots[i].row.store(row, std::memory_order_release);
}

void
HashIndex::growLocked()
{
    const SlotArray &old = *arrays_.back();
    auto fresh = std::make_unique<SlotArray>(old.capacity * 2);
    // Rehash in old-array index order — the same re-insertion order
    // the single-threaded index used, so layouts (and serial probe
    // counts) are identical. Rehash cost is not a lookup.
    for (std::size_t i = 0; i < old.capacity; ++i) {
        const RowId row =
            old.slots[i].row.load(std::memory_order_relaxed);
        if (row == kInvalidRow)
            continue;
        placeLocked(*fresh,
                    old.slots[i].key.load(std::memory_order_relaxed),
                    row);
    }
    arrays_.push_back(std::move(fresh));
    // The retired array stays alive (readers may still probe it);
    // publish the new one for everybody else.
    cur_.store(arrays_.back().get(), std::memory_order_release);
}

void
HashIndex::insert(std::uint64_t key, RowId row)
{
    std::lock_guard<std::mutex> lk(writeMu_);
    const std::size_t size = size_.load(std::memory_order_relaxed);
    if ((size + 1) * 10 > arrays_.back()->capacity * 7)
        growLocked();

    SlotArray &arr = *arrays_.back();
    const std::size_t mask = arr.capacity - 1;
    std::size_t i = mix(key) & mask;
    for (;;) {
        const RowId cur =
            arr.slots[i].row.load(std::memory_order_relaxed);
        if (cur == kInvalidRow) {
            arr.slots[i].key.store(key, std::memory_order_relaxed);
            arr.slots[i].row.store(row, std::memory_order_release);
            size_.store(size + 1, std::memory_order_relaxed);
            return;
        }
        if (arr.slots[i].key.load(std::memory_order_relaxed) ==
            key) {
            // Overwrite: key unchanged, publish the new row.
            arr.slots[i].row.store(row, std::memory_order_release);
            return;
        }
        i = (i + 1) & mask;
    }
}

std::optional<RowId>
HashIndex::lookup(std::uint64_t key, std::uint64_t *probes) const
{
    const SlotArray &arr = *cur_.load(std::memory_order_acquire);
    const std::size_t mask = arr.capacity - 1;
    std::size_t i = mix(key) & mask;
    std::uint64_t n = 1;
    std::optional<RowId> found;
    for (;;) {
        const RowId row =
            arr.slots[i].row.load(std::memory_order_acquire);
        if (row == kInvalidRow)
            break;
        if (arr.slots[i].key.load(std::memory_order_relaxed) ==
            key) {
            found = row;
            break;
        }
        i = (i + 1) & mask;
        ++n;
    }
    if (probes)
        *probes = n;
    return found;
}

} // namespace pushtap::txn
