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
 * The probe groups into it through one GroupFold per worker: a batch
 * whose keys fit a small key-domain window folds into the window's
 * flat slot arrays, any other batch hashes, and the window flushes
 * into the table before it moves and once after the fan-out. Join
 * builds and subquery pre-passes go through BuildTable, which gives
 * every distinct key a slot and places the rows by slot into flat
 * arrays: a bitset for a semi/anti join's key set, one
 * counting-sorted tuple array for an inner join, per-slot values for
 * a subquery's aggregates. A key's slot is its mixed-radix number
 * over the key columns' observed ranges when they span few enough
 * slots (denseSlotBound), so a probe reads it with one range check
 * per key column; otherwise the build numbers its distinct keys in a
 * GroupTable, and a probe looks its key up there.
 */

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
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

/** Partition count of a GroupTable (power of two): enough
 *  partitions to keep every pool worker busy through a merge without
 *  fragmenting small tables. */
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
        const auto [p, g] = locate(k);
        return g == kAbsent ? nullptr : p->aggs.data() + g * slots_;
    }

    /** True when @p k has a group: the existence probe of a
     *  slot-less key set. */
    bool
    contains(const InlineKey &k) const
    {
        return locate(k).second != kAbsent;
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
    /** Cache-line aligned: a merge grows the partitions of one table
     *  from different workers at once, and partitions sharing a line
     *  would false-share their vector headers. */
    struct alignas(64) Partition
    {
        std::vector<std::uint32_t> index;  ///< Group id + 1; 0 = free.
        std::vector<std::uint64_t> hashes; ///< Per group.
        std::vector<std::int64_t> keys;    ///< keyWidth per group.
        std::vector<std::int64_t> aggs;    ///< slots per group.
        std::vector<std::uint64_t> counts; ///< Per group.
    };

    static constexpr std::size_t kAbsent = ~std::size_t{0};

    /** @p k's partition and its group index there, or kAbsent (a
     *  key of another arity never has a group). */
    std::pair<const Partition *, std::size_t>
    locate(const InlineKey &k) const
    {
        const std::uint64_t h = InlineKeyHash{}(k);
        const Partition &p = parts_[hashPartitionOf(h)];
        if (k.n != keyWidth_ || p.index.empty())
            return {&p, kAbsent};
        const std::size_t mask = p.index.size() - 1;
        for (std::size_t i = h & mask;; i = (i + 1) & mask) {
            const std::uint32_t id = p.index[i];
            if (id == 0)
                return {&p, kAbsent};
            const std::size_t g = id - 1;
            if (p.hashes[g] == h && keyEquals(p, g, k))
                return {&p, g};
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
    runTasks(pool, kHashPartitions, [&](std::uint32_t, std::size_t p) {
        for (std::size_t w = 1; w < tables.size(); ++w)
            tables.front()->mergePartition(p, *tables[w], fold);
    });
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

/** The value an empty dense aggregate slot idles at: the identity of
 *  its fold (0, +inf, -inf), so folding any value into it yields that
 *  value and slots need no first-row check. */
inline std::int64_t
foldIdentity(AggKind kind)
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

/**
 * Fold a partial group — its values @p from, one per @p kinds entry,
 * over @p from_count > 0 rows — into group @p into: a window's flush
 * and the cross-worker merge step. Every fold is commutative and
 * associative (wrapping sum, min, max, count), so neither the
 * task-to-worker assignment nor the merge order can show in the
 * folded values.
 */
inline void
combineSlots(std::span<const AggKind> kinds, GroupTable::Group into,
             const std::int64_t *from, std::uint64_t from_count)
{
    for (std::size_t a = 0; a < kinds.size(); ++a)
        foldValue(into.aggs[a], kinds[a], from[a], *into.count == 0);
    *into.count += from_count;
}

/**
 * The surviving rows of one build-scan task, in scan order: what a
 * join build or a subquery pre-pass collected from its source table,
 * less the rows a semi-join reduction dropped (retain()). BuildTable
 * places them.
 */
struct BuildRows
{
    /** Key values, one vector per key column. */
    std::vector<std::vector<std::int64_t>> keys;
    /** Value ints per row, row after row: an inner join's payload
     *  tuple or a subquery's evaluated aggregate inputs. */
    std::vector<std::int64_t> vals;
    /** Each key column's min and max over the collected rows, dropped
     *  ones included (unset while none was collected). */
    std::array<std::int64_t, InlineKey::kMaxKeys> lo{}, hi{};
    std::size_t rows = 0;
    /** Collected rows that retain() dropped. */
    std::size_t dropped = 0;

    /** Rows the scan collected, dropped ones included. */
    std::size_t collected() const { return rows + dropped; }

    /**
     * Keep the rows i < rows for which @p keep(i) holds, in scan
     * order, with @p width value ints per row. @p keep(i) is asked
     * once per row, in order, before row i moves. lo and hi keep
     * ranging over every collected row.
     */
    template <typename Keep>
    void
    retain(std::size_t width, Keep &&keep)
    {
        std::size_t n = 0;
        for (std::size_t i = 0; i < rows; ++i) {
            if (!keep(i))
                continue;
            if (n != i) {
                for (auto &col : keys)
                    col[n] = col[i];
                std::copy_n(vals.begin() + static_cast<std::ptrdiff_t>(
                                               i * width),
                            width,
                            vals.begin() +
                                static_cast<std::ptrdiff_t>(n * width));
            }
            ++n;
        }
        for (auto &col : keys)
            col.resize(n);
        vals.resize(n * width);
        dropped += rows - n;
        rows = n;
    }

    /** Append a batch of key column @p c's values, widening its
     *  range; the caller counts the batch's rows into `rows` once
     *  every column is in. */
    void
    appendKeys(std::size_t c, std::span<const std::int64_t> batch)
    {
        if (batch.empty())
            return;
        auto &col = keys[c];
        std::int64_t l = col.empty() ? batch[0] : lo[c];
        std::int64_t h = col.empty() ? batch[0] : hi[c];
        for (const auto v : batch) {
            l = std::min(l, v);
            h = std::max(h, v);
        }
        lo[c] = l;
        hi[c] = h;
        col.insert(col.end(), batch.begin(), batch.end());
    }
};

/** What a BuildTable keeps per key. */
enum class BuildForm : std::uint8_t
{
    KeySet,      ///< Semi/anti join: membership only.
    TupleRanges, ///< Inner join: the key's payload tuples.
    Aggregates,  ///< Scalar subquery: one folded value per aggregate.
};

/** Slots every build may address directly, whatever its row count:
 *  a small build over a small domain never hashes. */
inline constexpr std::uint64_t kDenseSlack = std::uint64_t{1} << 16;

/**
 * The density rule: the most slots a direct-addressed build of
 * @p rows collected rows may span, for key width w = @p width and
 * a = @p aggs aggregates (Aggregates form).
 *
 * Direct addressing must take no more memory than a hash table over
 * the same rows. That table holds at most one group per row, and
 * each group at least 2 + w + p eight-byte words, its slot index
 * aside: the stored hash, the row count, the key and p payload words
 * (0 for a key set, 2 for an inner join's tuple range, a for a
 * subquery). A dense slot holds 1 bit for a key set, one 4-byte
 * tuple offset for an inner join and a words for a subquery, its
 * presence bit aside. The payload tuples are the same either way.
 * So per collected row a build may span
 *   key set       64 (2 + w)     = 128 + 64 w slots,
 *   tuple ranges   2 (2 + w + 2) =   8 + 2 w slots,
 *   aggregates    (2 + w + a) / a         slots,
 * plus kDenseSlack slots any build may take. Saturates at the
 * uint64 maximum.
 */
inline std::uint64_t
denseSlotBound(BuildForm form, std::uint32_t width, std::size_t aggs,
               std::uint64_t rows)
{
    constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t words = 2 + width;
    std::uint64_t per_row = 0, divisor = 1;
    switch (form) {
      case BuildForm::KeySet:
        per_row = 64 * words;
        break;
      case BuildForm::TupleRanges:
        per_row = 2 * (words + 2);
        break;
      case BuildForm::Aggregates:
        divisor = std::max<std::uint64_t>(aggs, 1);
        per_row = words + divisor;
        break;
    }
    if (rows > kMax / per_row)
        return kMax;
    const std::uint64_t slots = per_row * rows / divisor;
    return slots > kMax - kDenseSlack ? kMax : slots + kDenseSlack;
}

/**
 * The observed key domain of a build: each key column's values lie in
 * [lo, lo + span), and a key's slot is the mixed-radix number of its
 * offsets (v - lo), column 0 fastest. slots, the product of the
 * spans, is 0 for a build of no rows.
 */
struct KeyDomain
{
    std::uint32_t width = 0;
    std::array<std::int64_t, InlineKey::kMaxKeys> lo{};
    std::array<std::uint64_t, InlineKey::kMaxKeys> span{};
    std::array<std::uint64_t, InlineKey::kMaxKeys> stride{};
    std::uint64_t slots = 0;

    using Bounds = std::array<std::int64_t, InlineKey::kMaxKeys>;

    /**
     * The domain of keys whose column c lies in [lo[c], hi[c]], or
     * nullopt when it spans more than @p bound slots. Computed in
     * uint64 with overflow checks: a column spanning all of int64 is
     * simply too wide. Width 0 is one slot, whatever the bound.
     */
    static std::optional<KeyDomain> ofRanges(std::uint32_t width,
                                             const Bounds &lo,
                                             const Bounds &hi,
                                             std::uint64_t bound);

    /** The domain of @p tasks' collected keys (ofRanges over their
     *  bounds); a domain with no slot when they collected no row. */
    static std::optional<KeyDomain>
    observe(std::uint32_t width, std::span<const BuildRows> tasks,
            std::uint64_t bound);

    /** slotsOf()'s miss. */
    static constexpr std::uint64_t kMiss = ~std::uint64_t{0};

    /**
     * out[i] = slot of the key whose component c is col(c)[i]
     * (i < n), or kMiss when a component lies outside its column's
     * range: one unsigned compare per column.
     */
    template <typename ColFn>
    void
    slotsOf(std::size_t n, ColFn &&col,
            std::vector<std::uint64_t> &out) const
    {
        if (width == 0 || slots == 0) {
            out.assign(n, slots == 0 ? kMiss : 0);
            return;
        }
        out.resize(n);
        for (std::uint32_t c = 0; c < width; ++c) {
            const auto vals = col(c);
            const auto base = static_cast<std::uint64_t>(lo[c]);
            const std::uint64_t sp = span[c], st = stride[c];
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t d =
                    static_cast<std::uint64_t>(vals[i]) - base;
                const std::uint64_t acc = c == 0 ? 0 : out[i];
                out[i] = d < sp && acc != kMiss ? acc + d * st : kMiss;
            }
        }
    }
};

/**
 * One join build or subquery pre-pass: the keys of the rows its scan
 * collected, placed for read-only probing by every worker. Every
 * distinct key gets a slot, and the rows are placed by slot — a
 * bitset for a key set, an offset array over one counting-sorted
 * tuple array for tuple ranges, flat per-slot values for aggregates.
 * A key's slot is its KeyDomain slot when the domain fits
 * denseSlotBound (a probe range-checks each key column), and
 * otherwise its number in a GroupTable of the build's distinct keys
 * (a probe hashes the key and looks it up). Only denseSlots() tells
 * the two mappings apart, and every answer is identical for any
 * worker count. The domain and the density rule read every collected
 * row, so a build whose tasks a semi-join reduction thinned
 * (BuildRows::retain) takes the form the unreduced build would, and
 * places only the rows that were kept.
 */
class BuildTable
{
  public:
    /** find()'s miss: no collected row has the key. */
    static constexpr std::uint64_t kMiss = KeyDomain::kMiss;

    /** A semi/anti join's key set over @p tasks' keys. */
    static BuildTable keySet(std::uint32_t width,
                             std::span<const BuildRows> tasks,
                             WorkerPool *pool);

    /** An inner join's tuple ranges: each task's vals hold
     *  @p payload ints per row, and every key's tuples keep the
     *  tasks' scan order. */
    static BuildTable tupleRanges(std::uint32_t width,
                                  std::uint32_t payload,
                                  std::span<const BuildRows> tasks,
                                  WorkerPool *pool);

    /** A subquery's aggregates: each task's vals hold one input per
     *  @p kinds entry per row, folded per key. */
    static BuildTable aggregates(std::uint32_t width,
                                 std::vector<AggKind> kinds,
                                 std::span<const BuildRows> tasks,
                                 WorkerPool *pool);

    /** Rows collected, summed over tasks, dropped ones included: the
     *  rows the key domain and the density rule are read off. */
    std::uint64_t rows() const { return rows_; }

    /** Rows placed: the collected rows less the ones a reduction
     *  dropped. */
    std::uint64_t kept() const { return kept_; }

    /** Slots of the key domain; 0 when the keys are numbered, and for
     *  a build that collected no row (a domain with no slot). */
    std::uint64_t denseSlots() const { return numbered_ ? 0 : slots_; }

    /**
     * Locate n probe keys: out[i] is the slot of the key whose
     * component c is col(c)[i] (a span per key column), or kMiss.
     */
    template <typename ColFn>
    void
    find(std::size_t n, ColFn &&col,
         std::vector<std::uint64_t> &out) const
    {
        slotsOf(n, col, out);
        for (auto &s : out)
            if (s != kMiss && !occupied(s))
                s = kMiss;
    }

    bool contains(std::uint64_t loc) const { return loc != kMiss; }

    /** A located key's payload tuples: count tuples of the build's
     *  payload width from first, in scan order. */
    struct Tuples
    {
        const std::int64_t *first = nullptr;
        std::uint64_t count = 0;
    };

    Tuples
    matches(std::uint64_t loc) const
    {
        if (loc == kMiss)
            return {};
        const std::uint32_t b = offsets_[loc];
        return {tuples_.data() + std::size_t{b} * valWidth_,
                offsets_[loc + 1] - b};
    }

    /** Aggregate @p agg of a located key; 0 for kMiss, the IR's
     *  missing-group value. */
    std::int64_t
    value(std::uint64_t loc, std::size_t agg) const
    {
        return loc == kMiss ? 0 : aggs_[loc * valWidth_ + agg];
    }

  private:
    BuildTable(BuildForm form, std::uint32_t width,
               std::uint32_t val_width, std::vector<AggKind> kinds,
               std::span<const BuildRows> tasks, WorkerPool *pool);

    /** out[i] = slot of the key whose component c is col(c)[i], or
     *  kMiss when no collected row can have it. */
    template <typename ColFn>
    void
    slotsOf(std::size_t n, ColFn &&col,
            std::vector<std::uint64_t> &out) const
    {
        if (!numbered_) {
            domain_.slotsOf(n, col, out);
            return;
        }
        out.resize(n);
        InlineKey k;
        k.n = width_;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::uint32_t c = 0; c < width_; ++c)
                k.v[c] = col(c)[i];
            const std::int64_t *number = keys_.find(k);
            out[i] = number ? static_cast<std::uint64_t>(*number) : kMiss;
        }
    }

    /** True when slot @p s holds a key. */
    bool
    occupied(std::uint64_t s) const
    {
        if (form_ == BuildForm::TupleRanges)
            return offsets_[s] != offsets_[s + 1];
        return (bits_[s >> 6] >> (s & 63) & 1) != 0;
    }

    /** Number the distinct keys of @p tasks 0, 1, ... in keys_. */
    void numberKeys(std::span<const BuildRows> tasks, WorkerPool *pool);
    void placeTupleRanges(std::span<const BuildRows> tasks,
                          WorkerPool *pool);
    /** Key sets and aggregates: presence bits and valWidth_ folds
     *  per slot. */
    void placeAggregates(std::span<const BuildRows> tasks,
                         WorkerPool *pool);

    BuildForm form_ = BuildForm::KeySet;
    std::uint32_t width_ = 0;
    /** Payload ints (tuple ranges) or aggregates (aggregates) per
     *  row and key. */
    std::uint32_t valWidth_ = 0;
    std::vector<AggKind> kinds_;
    std::uint64_t rows_ = 0;
    std::uint64_t kept_ = 0;
    std::uint64_t slots_ = 0;
    /** True when keys_ maps keys to slots, false when domain_ does. */
    bool numbered_ = false;
    KeyDomain domain_;
    /** Each distinct key with its slot number in aggregate slot 0. */
    GroupTable keys_;
    /** Key set: membership, 1 bit per slot. Aggregates: presence,
     *  likewise. */
    std::vector<std::uint64_t> bits_;
    /** Tuple ranges: slot s's tuples are [offsets_[s], offsets_[s +
     *  1]) of tuples_. */
    std::vector<std::uint32_t> offsets_;
    /** Payload tuples, valWidth_ ints each, grouped by slot. */
    std::vector<std::int64_t> tuples_;
    /** Aggregates: valWidth_ values per slot. */
    std::vector<std::int64_t> aggs_;
};

/**
 * One worker's grouped aggregation: batches of n entries — key
 * columns plus one input column per aggregate kind — fold into its
 * GroupTable. A batch whose keys lie inside the live window, a
 * KeyDomain over flat slot arrays idle at each fold's identity, folds
 * column by column into the window's slots without hashing. Any other
 * batch first flushes the window into the table, then opens a new
 * window over its own key domain when that spans at most one slot per
 * kRowsPerSlot entries, and otherwise hashes entry by entry. A window
 * of one slot — an ungrouped fold (width 0), or a batch whose every
 * key column is constant — folds each batch as a plain column
 * reduction in a register. Every fold commutes, so which batches took
 * the window cannot show once flush() has emptied it.
 */
class GroupFold
{
  public:
    /** Entries per slot a batch's own key domain needs for a window. */
    static constexpr std::uint64_t kRowsPerSlot = 2;

    /** Per key column or aggregate input: a span of the entries. */
    using Columns = std::span<const std::span<const std::int64_t>>;

    GroupFold(std::uint32_t width, std::vector<AggKind> kinds)
        : kinds_(std::move(kinds)), table_(width, kinds_.size()),
          window_{width}
    {
    }

    /** Fold entries [0, @p n) of @p keys and @p vals. */
    void fold(std::size_t n, Columns keys, Columns vals);

    /** Fold the window's occupied slots into @p into — this fold's
     *  table, or another of its shape — and close the window. */
    void flush(GroupTable &into);

    /** The groups folded so far, less any still in the window. */
    GroupTable &table() { return table_; }

    /** Slots of the live window; 0 while none is open. */
    std::uint64_t windowSlots() const { return window_.slots; }

  private:
    void foldWindow(std::size_t n, Columns keys, Columns vals);

    std::vector<AggKind> kinds_;
    GroupTable table_;
    /** The live window; no slot while none is open. */
    KeyDomain window_;
    /** Window values, one per aggregate kind per slot. */
    std::vector<std::int64_t> aggs_;
    /** Entries folded per window slot. */
    std::vector<std::uint64_t> counts_;
    std::vector<std::uint64_t> slots_; ///< Scratch: entry slots.
};

} // namespace pushtap::olap
