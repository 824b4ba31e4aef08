#pragma once

/**
 * @file
 * Open-addressing hash index (the DBx1000-style hash index the paper
 * uses to speed up transactions and snapshotting, section 7.1).
 * Keys are 64-bit composite primary keys; values are data-region row
 * ids. Each lookup reports its probe count for the transaction cost
 * breakdown.
 *
 * Concurrency: lookups are lock-free and `const` — slots are
 * (key, row) atomic pairs published row-last with release ordering,
 * and growth publishes a fresh slot array through an atomic pointer
 * (retired arrays stay alive for readers still probing them; the
 * geometric growth bounds the extra footprint at ~2x). Inserts are
 * serialised by a writer mutex. The probe sequence, hash mix and
 * growth thresholds are identical to the original single-threaded
 * index, so serial probe counts — and the Fig. 11(c) indexing share
 * they feed — are unchanged. Probe counts are returned per call
 * through an out-parameter, so concurrent callers account their own
 * cost race-free and lookups share no written state.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace pushtap::txn {

class HashIndex
{
  public:
    explicit HashIndex(std::size_t expected_entries = 64);

    /** Insert or overwrite @p key (serialised across threads). */
    void insert(std::uint64_t key, RowId row);

    /**
     * Find @p key; safe to call concurrently with inserts. When
     * @p probes is non-null it receives the lookup's probe count.
     */
    std::optional<RowId> lookup(std::uint64_t key,
                                std::uint64_t *probes = nullptr) const;

    std::size_t size() const
    {
        return size_.load(std::memory_order_relaxed);
    }

  private:
    /**
     * A slot is empty while row == kInvalidRow. Inserts store the key
     * first and the row with release second, so a reader that sees an
     * occupied row also sees the matching key. Occupied slots never
     * empty again (no deletions), so a reader that stops at an empty
     * slot can only miss keys whose insert it overlapped — a
     * linearizable outcome.
     */
    struct Slot
    {
        std::atomic<std::uint64_t> key{0};
        std::atomic<RowId> row{kInvalidRow};
    };

    struct SlotArray
    {
        explicit SlotArray(std::size_t n)
            : slots(new Slot[n]), capacity(n)
        {
        }
        std::unique_ptr<Slot[]> slots;
        std::size_t capacity;
    };

    static std::uint64_t mix(std::uint64_t k);

    /** Called under writeMu_. */
    void growLocked();
    static void placeLocked(SlotArray &arr, std::uint64_t key,
                            RowId row);

    std::atomic<SlotArray *> cur_;
    /** All arrays ever published, newest last; guarded by writeMu_. */
    std::vector<std::unique_ptr<SlotArray>> arrays_;
    std::mutex writeMu_;
    std::atomic<std::size_t> size_{0};
};

/** Field widths of the packed composite key. */
inline constexpr std::uint64_t kPackKeyMaxA = (1ull << 24) - 1;
inline constexpr std::uint64_t kPackKeyMaxB = (1ull << 8) - 1;
inline constexpr std::uint64_t kPackKeyMaxC = (1ull << 32) - 1;

/** Out-of-line so packKey stays constexpr-friendly; throws FatalError. */
[[noreturn]] void packKeyOverflow(std::uint64_t a, std::uint64_t b,
                                  std::uint64_t c);

/**
 * Composite TPC-C key helpers: a (24 bits, 40-63), b (8 bits, 32-39)
 * and c (32 bits, 0-31) packed into 64 bits. Out-of-range fields used
 * to alias silently into their neighbours; now any overflow fatal()s
 * (and is a compile error in constant evaluation).
 */
constexpr std::uint64_t
packKey(std::uint64_t a, std::uint64_t b = 0, std::uint64_t c = 0)
{
    if (a > kPackKeyMaxA || b > kPackKeyMaxB || c > kPackKeyMaxC)
        packKeyOverflow(a, b, c);
    return (a << 40) | (b << 32) | c;
}

} // namespace pushtap::txn
