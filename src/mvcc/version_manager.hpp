#pragma once

/**
 * @file
 * MVCC version management (section 5.1, Fig. 6): per-row metadata
 * (write timestamp, read timestamp, pointer) kept in CPU memory, with
 * new-version row bytes stored in the table's delta region. The delta
 * allocator preserves the origin row's block-circulant rotation so
 * defragmentation is a device-local PIM copy.
 *
 * Concurrency model (multi-writer OLTP + snapshot readers):
 *  - Version metadata lives in a chunked arena with stable addresses;
 *    readers walk chains lock-free while writers append (the entry
 *    count is published with release ordering after the entry's
 *    fields are written, and chunk pointers are never reallocated).
 *  - Chain heads are one atomic version index per data-region row
 *    (the per-row metadata of Fig. 6(b)): a writer publishes a new
 *    head with a release store under the append mutex, and a reader
 *    finds the newest version with one acquire load, then walks the
 *    immutable prev-chain without any lock.
 *  - Commit timestamps must be monotonic *per row* (concurrent
 *    partitions interleave their appends, so the global append order
 *    is no longer the commit order; appendsCommitOrdered() tells the
 *    snapshotter which scan strategy is sound).
 *  - reset() (defragmentation's bookkeeping) synchronises with the
 *    epoch manager so in-flight chain walks never dereference freed
 *    metadata: readers pin an epoch (see mvcc/epoch.hpp), and never
 *    block writers.
 */

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hpp"
#include "format/block_circulant.hpp"
#include "mvcc/epoch.hpp"
#include "storage/table_store.hpp"

namespace pushtap::mvcc {

/** Sentinel: no previous version. */
inline constexpr std::uint32_t kNoVersion = 0xFFFFFFFFu;

/**
 * Metadata bytes per version (m in Eqs. 1-3; the paper's example uses
 * m = 16: two timestamps and a packed pointer).
 */
inline constexpr Bytes kMetadataBytes = 16;

/** One version's metadata (Fig. 6(b)). */
struct VersionMeta
{
    Timestamp writeTs = 0; ///< Transaction that created the version.
    /** Most recent reader; atomic max-updated by concurrent reads. */
    mutable std::atomic<Timestamp> readTs{0};
    RowId rowId = 0;       ///< Origin row in the data region.
    RowId deltaSlot = 0;   ///< This version's bytes in the delta region.
    std::uint32_t prev = kNoVersion; ///< Previous version, kNoVersion if origin.
};

/** Where the visible version of a row was found. */
struct VersionLookup
{
    storage::Region region;
    RowId row;
    std::uint32_t chainSteps; ///< Pointer hops performed.
};

/**
 * Append-only version store with stable addresses: fixed-size chunks
 * hang off a preallocated pointer directory, so concurrent readers
 * index entries below the published count while one writer (under the
 * VersionManager's mutex) appends — no reallocation ever moves a
 * published entry. clear() may only run quiesced (after an epoch
 * synchronise).
 */
class VersionArena
{
  public:
    static constexpr std::size_t kChunkBits = 12;
    static constexpr std::size_t kChunkRows = 1ull << kChunkBits;

    explicit VersionArena(std::uint64_t max_entries)
        : dirCap_((max_entries >> kChunkBits) + 2),
          chunks_(new std::atomic<VersionMeta *>[dirCap_])
    {
        for (std::size_t c = 0; c < dirCap_; ++c)
            chunks_[c].store(nullptr, std::memory_order_relaxed);
    }

    ~VersionArena() { freeChunks(); }

    VersionArena(const VersionArena &) = delete;
    VersionArena &operator=(const VersionArena &) = delete;

    std::size_t
    size() const
    {
        return count_.load(std::memory_order_acquire);
    }

    bool empty() const { return size() == 0; }

    const VersionMeta &
    operator[](std::size_t i) const
    {
        return chunks_[i >> kChunkBits].load(
            std::memory_order_relaxed)[i & (kChunkRows - 1)];
    }

    const VersionMeta &back() const { return (*this)[size() - 1]; }

    /** Single-writer append (call under the owner's write mutex). */
    std::uint32_t pushBack(Timestamp write_ts, RowId row,
                           RowId delta_slot, std::uint32_t prev);

    /** Drop everything; only sound with no concurrent readers. */
    void
    clear()
    {
        freeChunks();
        count_.store(0, std::memory_order_release);
    }

    class const_iterator
    {
      public:
        const_iterator(const VersionArena *a, std::size_t i)
            : a_(a), i_(i)
        {
        }
        const VersionMeta &operator*() const { return (*a_)[i_]; }
        const VersionMeta *operator->() const { return &(*a_)[i_]; }
        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }
        bool
        operator==(const const_iterator &o) const
        {
            return i_ == o.i_;
        }
        bool
        operator!=(const const_iterator &o) const
        {
            return i_ != o.i_;
        }

      private:
        const VersionArena *a_;
        std::size_t i_;
    };

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size()}; }

  private:
    void freeChunks();

    std::size_t dirCap_;
    std::unique_ptr<std::atomic<VersionMeta *>[]> chunks_;
    std::atomic<std::size_t> count_{0};
};

class VersionManager
{
  public:
    /**
     * @param circulant       Placement config (rotation classes).
     * @param delta_capacity  Delta-region rows available.
     * @param data_rows       Data-region rows that may carry versions.
     */
    VersionManager(const format::BlockCirculant &circulant,
                   std::uint64_t delta_capacity,
                   std::uint64_t data_rows);

    /**
     * Allocate a delta slot whose rotation matches data row @p data_row.
     * fatal()s when the delta region is exhausted (defragmentation
     * overdue). Thread-safe and lock-free: one CAS on the rotation
     * class's allocation count.
     */
    RowId allocDeltaSlot(RowId data_row);

    /**
     * Record a new version of @p data_row living at @p delta_slot,
     * committed at @p write_ts. Timestamps must be non-decreasing per
     * row (concurrent rows may interleave out of order); fatal()s on
     * a row beyond the data region. Returns the version index.
     * Thread-safe.
     */
    std::uint32_t addVersion(RowId data_row, RowId delta_slot,
                             Timestamp write_ts);

    /** True if the row has at least one delta version. */
    bool hasVersions(RowId data_row) const;

    /**
     * Find the newest version of @p data_row visible at @p ts
     * (writeTs <= ts), walking the chain; falls through to the data
     * region's origin row. Updates the version's read timestamp.
     */
    VersionLookup locateVisible(RowId data_row, Timestamp ts);

    /** Find the newest version regardless of timestamp. */
    VersionLookup locateNewest(RowId data_row) const;

    /** All versions in append order (stable addresses; lock-free). */
    const VersionArena &versions() const { return arena_; }

    /**
     * Visit every chain head as (data_row, newest version index): one
     * sweep of the arena in append order that visits entry i only if
     * it is its row's head. Returns the entries swept; every entry
     * lies on exactly one row's chain, so that is also the total
     * chain length. Intended for quiesced phases (defragmentation)
     * or read-only inspection.
     */
    template <class Fn>
    std::size_t
    forEachHead(Fn &&fn) const
    {
        const std::size_t n = arena_.size();
        for (std::size_t i = 0; i < n; ++i) {
            const RowId row = arena_[i].rowId;
            if (headOf(row) == i)
                fn(row, static_cast<std::uint32_t>(i));
        }
        return n;
    }

    /**
     * True while the arena's append order matches commit-timestamp
     * order (always the case for single-threaded execution). The
     * snapshotter's early-exit scan relies on it; once concurrent
     * partitions interleave appends out of order this latches false
     * (until reset()).
     */
    bool
    appendsCommitOrdered() const
    {
        return commitOrdered_.load(std::memory_order_acquire);
    }

    /** Delta slots allocated since the last reset(). */
    std::uint64_t deltaUsed() const;
    std::uint64_t deltaCapacity() const { return deltaCapacity_; }

    /**
     * The exclusive upper bound of delta slot ids after allocating
     * @p extra_per_class more versions in each rotation class, given
     * the allocations so far. Lets a transaction scheduler pre-grow the
     * physical delta region so no growth (and no reallocation) can
     * happen under concurrent readers. fatal()s if the bound would
     * exceed the delta capacity guard. Call with no allocation in
     * flight.
     */
    std::uint64_t slotBoundWithExtra(
        const std::vector<std::uint64_t> &extra_per_class) const;

    /** Rotation classes the delta allocator cycles through. */
    std::uint32_t rotationClasses() const { return classes_; }

    /** Rotation class of @p data_row's versions. */
    std::uint32_t
    rotationClassOf(RowId data_row) const
    {
        return static_cast<std::uint32_t>(circulant_.blockOf(data_row) %
                                          classes_);
    }

    /** Epoch manager guarding metadata reclamation. */
    EpochManager &epochs() const { return epochs_; }

    /** Total metadata bytes resident in CPU memory. */
    Bytes
    metadataBytes() const
    {
        return arena_.size() * kMetadataBytes;
    }

    /**
     * Drop all chains and free the delta region (the bookkeeping half
     * of defragmentation; data movement is the Defragmenter's job).
     * Waits for in-flight epoch-pinned readers first; must not be
     * called while the calling thread holds an epoch pin.
     */
    void reset();

  private:
    /** Newest version of @p row, kNoVersion if none (lock-free). */
    std::uint32_t
    headOf(RowId row) const
    {
        return row < dataRows_
                   ? heads_[row].load(std::memory_order_acquire)
                   : kNoVersion;
    }

    /**
     * The delta slot of the @p k-th allocation (from 0) of rotation
     * class @p cls: block ordinal k / B of the class's blocks cls,
     * cls + d, cls + 2d, ..., slot k % B within it.
     */
    RowId slotOf(std::uint32_t cls, std::uint64_t k) const;

    format::BlockCirculant circulant_;
    std::uint64_t deltaCapacity_;
    std::uint32_t classes_;
    /** Rows per delta block the allocator fills (1 without rotation). */
    std::uint32_t blockRows_;

    /** Serialises arena appends. */
    std::mutex mu_;
    Timestamp lastAppendTs_ = 0; ///< Guarded by mu_.
    std::atomic<bool> commitOrdered_{true};

    /** Per rotation class: allocations since the last reset(), on a
     *  cache line of its own. */
    struct alignas(64) ClassCount
    {
        std::atomic<std::uint64_t> n{0};
    };
    std::unique_ptr<ClassCount[]> allocated_;

    VersionArena arena_;

    /** Per data row: its newest version, kNoVersion if none. */
    std::uint64_t dataRows_;
    std::unique_ptr<std::atomic<std::uint32_t>[]> heads_;

    mutable EpochManager epochs_;
};

} // namespace pushtap::mvcc
