#pragma once

/**
 * @file
 * Inline composite keys and the flat group table the batch engine
 * aggregates into.
 *
 * GroupTable is an open-addressing hash table whose groups live in
 * flat arrays: key components, aggregate slots and the row count of
 * a group are stored inline in fixed-width records, so inserting a
 * group allocates nothing beyond amortized array growth. The table
 * is split into kHashPartitions independent sub-tables by the top
 * bits of the key hash (hashPartitionOf), so a cross-worker merge
 * (mergeGroupTables) folds partition p of every worker's table as
 * one independent task, and any work confined to one partition runs
 * beside the others without locks.
 *
 * The batch engine groups, materializes subqueries and builds every
 * join into it: a semi/anti join's build is a slot-less key set
 * probed with contains(); an inner join's keeps two slots per key,
 * the range of its payload tuples in a flat per-partition array.
 *
 * DenseGroupAggregator is the hash-free alternative for one small
 * integer key domain: flat arrays indexed by key offset, merged
 * array by array across workers and spilled into a GroupTable when
 * the domain outgrows it.
 */

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/worker_pool.hpp"
#include "olap/plan.hpp"

namespace pushtap::olap {

/**
 * Inline composite key: join, group and subquery keys hashed as
 * whole int tuples (no per-row byte-string building). validatePlan
 * caps every plan key at kMaxKeyColumns, so each one fits.
 */
struct InlineKey
{
    static constexpr std::size_t kMaxKeys = 8;

    std::array<std::int64_t, kMaxKeys> v{};
    std::uint32_t n = 0;

    bool
    operator==(const InlineKey &o) const
    {
        if (n != o.n)
            return false;
        for (std::uint32_t i = 0; i < n; ++i)
            if (v[i] != o.v[i])
                return false;
        return true;
    }

    /** Lexicographic over the used slots (== std::map<vector> order
     *  when every key has the same arity). */
    bool
    operator<(const InlineKey &o) const
    {
        for (std::uint32_t i = 0; i < n && i < o.n; ++i)
            if (v[i] != o.v[i])
                return v[i] < o.v[i];
        return n < o.n;
    }
};

static_assert(InlineKey::kMaxKeys >= kMaxKeyColumns,
              "plan keys must fit the inline key");

struct InlineKeyHash
{
    std::size_t
    operator()(const InlineKey &k) const
    {
        // SplitMix64-style mixing per component, FNV-style fold.
        std::uint64_t h = 0x9e3779b97f4a7c15ull + k.n;
        for (std::uint32_t i = 0; i < k.n; ++i) {
            std::uint64_t x = static_cast<std::uint64_t>(k.v[i]);
            x ^= x >> 30;
            x *= 0xbf58476d1ce4e5b9ull;
            x ^= x >> 27;
            x *= 0x94d049bb133111ebull;
            x ^= x >> 31;
            h = (h ^ x) * 0x100000001b3ull;
        }
        return static_cast<std::size_t>(h);
    }
};

/** Hash-partition count of the parallel join builds and the group
 *  tables (power of two): enough partitions to keep every pool
 *  worker busy through a stitch or merge without fragmenting small
 *  inputs. */
inline constexpr std::size_t kHashPartitions = 16;

/** Partition of a key hash: its top bits, so partitioning never
 *  correlates with in-partition slot placement (the low bits). */
inline std::size_t
hashPartitionOf(std::uint64_t hash)
{
    return hash >> 60 & (kHashPartitions - 1);
}

/**
 * Hash-partitioned open-addressing group table over InlineKeys of a
 * fixed arity. Each group holds `slots` int64 aggregate slots
 * (zero-initialized on insert) and a row count (0 on insert); the
 * caller folds values in. Groups are never removed.
 */
class GroupTable
{
  public:
    GroupTable() = default;
    GroupTable(std::uint32_t key_width, std::size_t slots)
        : keyWidth_(key_width), slots_(slots)
    {
    }

    std::uint32_t keyWidth() const { return keyWidth_; }
    std::size_t slots() const { return slots_; }

    /** Groups across all partitions. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &p : parts_)
            n += p.counts.size();
        return n;
    }

    /** One group's inline record; valid until the next insert. */
    struct Group
    {
        std::int64_t *aggs;
        std::uint64_t *count;
    };

    /** The group of @p k (hash @p h), inserted zeroed when absent. */
    Group
    findOrInsert(const InlineKey &k, std::uint64_t h)
    {
        auto &p = parts_[hashPartitionOf(h)];
        if (2 * (p.counts.size() + 1) > p.index.size())
            grow(p);
        const std::size_t mask = p.index.size() - 1;
        for (std::size_t i = h & mask;; i = (i + 1) & mask) {
            const std::uint32_t id = p.index[i];
            if (id == 0) {
                const std::size_t g = p.counts.size();
                p.index[i] = static_cast<std::uint32_t>(g + 1);
                p.hashes.push_back(h);
                p.keys.insert(p.keys.end(), k.v.begin(),
                              k.v.begin() + keyWidth_);
                p.aggs.resize(p.aggs.size() + slots_, 0);
                p.counts.push_back(0);
                return {p.aggs.data() + g * slots_, &p.counts[g]};
            }
            const std::size_t g = id - 1;
            if (p.hashes[g] == h && keyEquals(p, g, k))
                return {p.aggs.data() + g * slots_, &p.counts[g]};
        }
    }

    Group
    findOrInsert(const InlineKey &k)
    {
        return findOrInsert(k, InlineKeyHash{}(k));
    }

    /** Aggregate slots of the group of @p k, or nullptr. */
    const std::int64_t *
    find(const InlineKey &k) const
    {
        if (k.n != keyWidth_)
            return nullptr;
        return find(k, InlineKeyHash{}(k));
    }

    /** Aggregate slots of the group of @p k (hash @p h, arity
     *  keyWidth()), or nullptr. */
    const std::int64_t *
    find(const InlineKey &k, std::uint64_t h) const
    {
        const auto &p = parts_[hashPartitionOf(h)];
        const std::size_t g = locate(p, k, h);
        return g == kAbsent ? nullptr : p.aggs.data() + g * slots_;
    }

    std::int64_t *
    find(const InlineKey &k, std::uint64_t h)
    {
        auto &p = parts_[hashPartitionOf(h)];
        const std::size_t g = locate(p, k, h);
        return g == kAbsent ? nullptr : p.aggs.data() + g * slots_;
    }

    /** True when @p k (hash @p h, arity keyWidth()) has a group:
     *  the existence probe of a slot-less key set. */
    bool
    contains(const InlineKey &k, std::uint64_t h) const
    {
        return locate(parts_[hashPartitionOf(h)], k, h) != kAbsent;
    }

    /** Aggregate slots of partition @p p's groups, slots() per group
     *  in insertion order. */
    std::span<std::int64_t>
    partitionAggs(std::size_t p)
    {
        return parts_[p].aggs;
    }

    /**
     * Visit every group, partition by partition in insertion order:
     * fn(key, aggs, count), with key pointing at keyWidth() ints and
     * aggs at slots() ints of the table's own storage.
     */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &part : parts_)
            for (std::size_t g = 0; g < part.counts.size(); ++g)
                fn(part.keys.data() + g * keyWidth_,
                   part.aggs.data() + g * slots_, part.counts[g]);
    }

    /**
     * Fold partition @p p of @p from (same arity and slots, another
     * table) into this table's partition p:
     * fold(into_group, from_aggs, from_count) per source group.
     * Touches partition p of each table only, so distinct partitions
     * merge concurrently.
     */
    template <typename Fold>
    void
    mergePartition(std::size_t p, const GroupTable &from, Fold &&fold)
    {
        const auto &src = from.parts_[p];
        InlineKey k;
        k.n = keyWidth_;
        for (std::size_t g = 0; g < src.counts.size(); ++g) {
            const std::int64_t *key = src.keys.data() + g * keyWidth_;
            for (std::uint32_t c = 0; c < keyWidth_; ++c)
                k.v[c] = key[c];
            fold(findOrInsert(k, src.hashes[g]),
                 src.aggs.data() + g * slots_, src.counts[g]);
        }
    }

  private:
    struct Partition
    {
        std::vector<std::uint32_t> index;  ///< Group id + 1; 0 = free.
        std::vector<std::uint64_t> hashes; ///< Per group.
        std::vector<std::int64_t> keys;    ///< keyWidth per group.
        std::vector<std::int64_t> aggs;    ///< slots per group.
        std::vector<std::uint64_t> counts; ///< Per group.
    };

    static constexpr std::size_t kAbsent = ~std::size_t{0};

    /** Group index of @p k (hash @p h) in partition @p p, or
     *  kAbsent. */
    std::size_t
    locate(const Partition &p, const InlineKey &k,
           std::uint64_t h) const
    {
        if (p.index.empty())
            return kAbsent;
        const std::size_t mask = p.index.size() - 1;
        for (std::size_t i = h & mask;; i = (i + 1) & mask) {
            const std::uint32_t id = p.index[i];
            if (id == 0)
                return kAbsent;
            const std::size_t g = id - 1;
            if (p.hashes[g] == h && keyEquals(p, g, k))
                return g;
        }
    }

    bool
    keyEquals(const Partition &p, std::size_t g,
              const InlineKey &k) const
    {
        const std::int64_t *key = p.keys.data() + g * keyWidth_;
        for (std::uint32_t c = 0; c < keyWidth_; ++c)
            if (key[c] != k.v[c])
                return false;
        return true;
    }

    /** Double the slot index (load factor <= 1/2) and re-place every
     *  group from its stored hash. */
    static void
    grow(Partition &p)
    {
        const std::size_t cap =
            p.index.empty() ? 16 : 2 * p.index.size();
        p.index.assign(cap, 0);
        const std::size_t mask = cap - 1;
        for (std::size_t g = 0; g < p.hashes.size(); ++g) {
            std::size_t i = p.hashes[g] & mask;
            while (p.index[i] != 0)
                i = (i + 1) & mask;
            p.index[i] = static_cast<std::uint32_t>(g + 1);
        }
    }

    std::uint32_t keyWidth_ = 0;
    std::size_t slots_ = 0;
    std::array<Partition, kHashPartitions> parts_;
};

/**
 * Fold every table of @p tables into one and return it: the largest
 * table is the target, and partition p of every other table folds
 * into it as one task of @p pool (inline without a multi-worker
 * pool), so the merge parallelizes without locks. @p fold is
 * mergePartition's per-group fold; a commutative fold makes the
 * merged values equal a serial fold's, and a no-op fold leaves the
 * union of the key sets. @p tables must not be empty.
 */
template <typename Fold>
GroupTable &
mergeGroupTables(std::vector<GroupTable *> tables, WorkerPool *pool,
                 const Fold &fold)
{
    std::swap(tables.front(),
              *std::max_element(tables.begin(), tables.end(),
                                [](const GroupTable *a,
                                   const GroupTable *b) {
                                    return a->size() < b->size();
                                }));
    std::size_t nonempty = 0;
    for (const auto *t : tables)
        nonempty += t->size() > 0 ? 1 : 0;
    if (nonempty < 2)
        return *tables.front();
    auto merge = [&](std::uint32_t, std::size_t p) {
        for (std::size_t w = 1; w < tables.size(); ++w)
            tables.front()->mergePartition(p, *tables[w], fold);
    };
    if (pool && pool->workers() > 1)
        pool->parallelFor(kHashPartitions, merge);
    else
        for (std::size_t p = 0; p < kHashPartitions; ++p)
            merge(0, p);
    return *tables.front();
}

/** Two's-complement wrapping sum: expression aggregates can reach
 *  any int64, so Sum folds share the IR's defined wrap semantics
 *  (identical in every executor, no UB at the extremes). */
inline std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

/** Fold one value into an aggregate slot per the aggregate kind;
 *  @p first is true while the group holds no rows yet (min/max then
 *  take the value as is). */
inline void
foldValue(std::int64_t &slot, AggKind kind, std::int64_t v, bool first)
{
    switch (kind) {
      case AggKind::Sum:
        slot = wrapAdd(slot, v);
        break;
      case AggKind::Min:
        slot = first ? v : std::min(slot, v);
        break;
      case AggKind::Max:
        slot = first ? v : std::max(slot, v);
        break;
    }
}

/**
 * Dense aggregation for fused plans with one Int group key whose
 * value domain stays small (Q1's ol_number, Q9-style warehouse ids):
 * accumulators are flat arrays indexed by (key - lo), updated
 * column-at-a-time with no per-row hashing. Falls back (spills to
 * the group table) when the observed domain exceeds kMaxDomain.
 * Per-worker aggregators merge array by array (mergeFrom).
 */
class DenseGroupAggregator
{
  public:
    static constexpr std::int64_t kMaxDomain = 4096;

    explicit DenseGroupAggregator(const std::vector<AggSpec> &specs)
    {
        for (const auto &a : specs)
            kinds_.push_back(a.kind);
        aggs_.resize(kinds_.size());
    }

    /**
     * Fold one morsel's group keys and aggregate columns (all
     * parallel to the surviving selection) into the dense arrays.
     * Returns false — leaving this morsel unconsumed — when the key
     * domain would exceed kMaxDomain.
     */
    bool
    accumulate(std::span<const std::int64_t> gvals,
               const std::vector<std::span<const std::int64_t>>
                   &avals)
    {
        if (gvals.empty())
            return true;
        std::int64_t mlo = gvals[0], mhi = gvals[0];
        for (const auto v : gvals) {
            mlo = std::min(mlo, v);
            mhi = std::max(mhi, v);
        }
        if (!ensureRange(mlo, mhi))
            return false;
        const std::int64_t lo = lo_;
        for (std::size_t a = 0; a < kinds_.size(); ++a) {
            auto *slots = aggs_[a].data();
            const auto vals = avals[a];
            switch (kinds_[a]) {
              case AggKind::Sum:
                for (std::size_t i = 0; i < gvals.size(); ++i) {
                    auto &s = slots[gvals[i] - lo];
                    s = wrapAdd(s, vals[i]);
                }
                break;
              case AggKind::Min:
                for (std::size_t i = 0; i < gvals.size(); ++i) {
                    auto &s = slots[gvals[i] - lo];
                    s = std::min(s, vals[i]);
                }
                break;
              case AggKind::Max:
                for (std::size_t i = 0; i < gvals.size(); ++i) {
                    auto &s = slots[gvals[i] - lo];
                    s = std::max(s, vals[i]);
                }
                break;
            }
        }
        auto *counts = count_.data();
        for (const auto v : gvals)
            ++counts[v - lo];
        return true;
    }

    /**
     * Fold another worker's aggregator in, slot by slot. Returns
     * false — leaving both untouched — when the union key domain
     * would exceed kMaxDomain.
     */
    bool
    mergeFrom(const DenseGroupAggregator &o)
    {
        if (o.count_.empty())
            return true;
        if (!ensureRange(o.lo_,
                         o.lo_ + static_cast<std::int64_t>(
                                     o.count_.size()) -
                             1))
            return false;
        const auto off = static_cast<std::size_t>(o.lo_ - lo_);
        // Idle slots hold each fold's identity (0, +inf, -inf), so
        // empty groups on either side fold away.
        for (std::size_t a = 0; a < kinds_.size(); ++a) {
            auto *into = aggs_[a].data() + off;
            const auto &from = o.aggs_[a];
            for (std::size_t i = 0; i < from.size(); ++i) {
                switch (kinds_[a]) {
                  case AggKind::Sum:
                    into[i] = wrapAdd(into[i], from[i]);
                    break;
                  case AggKind::Min:
                    into[i] = std::min(into[i], from[i]);
                    break;
                  case AggKind::Max:
                    into[i] = std::max(into[i], from[i]);
                    break;
                }
            }
        }
        for (std::size_t i = 0; i < o.count_.size(); ++i)
            count_[off + i] += o.count_[i];
        return true;
    }

    /** Fold the non-empty groups into a (1-key) group table. */
    void
    spill(GroupTable &groups) const
    {
        for (std::size_t i = 0; i < count_.size(); ++i) {
            if (count_[i] == 0)
                continue;
            InlineKey key;
            key.n = 1;
            key.v[0] = lo_ + static_cast<std::int64_t>(i);
            const auto g = groups.findOrInsert(key);
            const bool first = *g.count == 0;
            for (std::size_t a = 0; a < kinds_.size(); ++a)
                foldValue(g.aggs[a], kinds_[a], aggs_[a][i], first);
            *g.count += count_[i];
        }
    }

  private:
    /** Grow (and re-base) the arrays to cover [lo, hi]. */
    bool
    ensureRange(std::int64_t lo, std::int64_t hi)
    {
        if (count_.empty()) {
            if (hi - lo + 1 > kMaxDomain)
                return false;
            lo_ = lo;
            resizeTo(static_cast<std::size_t>(hi - lo + 1), 0);
            return true;
        }
        const std::int64_t new_lo = std::min(lo, lo_);
        const std::int64_t new_hi = std::max(
            hi, lo_ + static_cast<std::int64_t>(count_.size()) - 1);
        if (new_hi - new_lo + 1 > kMaxDomain)
            return false;
        if (new_lo == lo_ &&
            new_hi < lo_ + static_cast<std::int64_t>(count_.size()))
            return true;
        const auto front =
            static_cast<std::size_t>(lo_ - new_lo);
        resizeTo(static_cast<std::size_t>(new_hi - new_lo + 1),
                 front);
        lo_ = new_lo;
        return true;
    }

    /** Min slots idle at +inf, Max at -inf: updates need no count
     *  check, and only count>0 slots are ever read back. */
    std::int64_t
    idleValue(AggKind kind) const
    {
        switch (kind) {
          case AggKind::Min:
            return std::numeric_limits<std::int64_t>::max();
          case AggKind::Max:
            return std::numeric_limits<std::int64_t>::min();
          case AggKind::Sum:
            break;
        }
        return 0;
    }

    void
    resizeTo(std::size_t n, std::size_t front)
    {
        std::vector<std::uint64_t> counts(n, 0);
        std::copy(count_.begin(), count_.end(),
                  counts.begin() + static_cast<std::ptrdiff_t>(front));
        count_ = std::move(counts);
        for (std::size_t a = 0; a < aggs_.size(); ++a) {
            std::vector<std::int64_t> slots(n,
                                            idleValue(kinds_[a]));
            std::copy(aggs_[a].begin(), aggs_[a].end(),
                      slots.begin() +
                          static_cast<std::ptrdiff_t>(front));
            aggs_[a] = std::move(slots);
        }
    }

    std::int64_t lo_ = 0;
    std::vector<AggKind> kinds_;
    std::vector<std::uint64_t> count_;
    std::vector<std::vector<std::int64_t>> aggs_; ///< [agg][group].
};

} // namespace pushtap::olap
