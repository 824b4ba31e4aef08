#pragma once

/**
 * @file
 * Morsel-driven batch execution layer under the OLAP operators.
 *
 * The executor walks each table in *morsels* of up to kMorselRows
 * rows per region, and each morsel is one scan task that any worker
 * of the pool may claim (scanMorsels). A morsel's snapshot
 * visibility becomes a SelectionVector via word-level bitmap
 * extraction (no bit-by-bit findNext walk); every referenced column
 * is then decoded once per morsel into a typed ColumnBatch — through
 * a zero-copy stride read straight off the contiguous region bytes
 * when the column is unfragmented, through the fragment-gather path
 * otherwise — and predicates run as selection-vector kernels that
 * compact the selection in place. The whole predicate chain, and
 * (when no join intervenes) the aggregate update too, fuses into a
 * single pass over each morsel.
 *
 * This layer is purely functional: the pricing charges one serial
 * scan per scan step of the plan (planSteps, section 6.2), fused
 * pass or not.
 */

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "format/layout.hpp"
#include "olap/expr.hpp"
#include "olap/group_table.hpp"
#include "storage/table_store.hpp"

namespace pushtap::olap {

/** Default rows per morsel: large enough to amortize per-batch
 *  setup, small enough that a handful of decoded columns stay
 *  cache-resident. Tunable (power of two) via ExecOptions::morselRows;
 *  OlapEngine runs at this default. */
inline constexpr std::uint32_t kMorselRows = 2048;

/** One morsel: rows [base, base + count) of one region. */
struct Morsel
{
    storage::Region reg = storage::Region::Data;
    RowId base = 0;
    std::uint32_t count = 0;
};

/**
 * Minimal allocator that hands out 64-byte-aligned storage, so the
 * SIMD kernels' vector loads over morsel buffers never split a cache
 * line. All instances are interchangeable (stateless).
 */
template <typename T>
struct Aligned64Allocator
{
    using value_type = T;
    static constexpr std::align_val_t kAlign{64};

    Aligned64Allocator() = default;
    template <typename U>
    Aligned64Allocator(const Aligned64Allocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(
            ::operator new(n * sizeof(T), kAlign));
    }

    void
    deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, kAlign);
    }

    template <typename U>
    bool
    operator==(const Aligned64Allocator<U> &) const noexcept
    {
        return true;
    }
};

/** 64-byte-aligned vector for morsel-resident kernel buffers. */
template <typename T>
using AlignedVec = std::vector<T, Aligned64Allocator<T>>;

/**
 * Offsets (relative to a morsel's base row) of the rows still
 * selected, ascending. Kernels compact it in place.
 */
struct SelectionVector
{
    AlignedVec<std::uint32_t> idx;

    std::size_t size() const { return idx.size(); }
    bool empty() const { return idx.empty(); }
    void clear() { idx.clear(); }
    std::span<const std::uint32_t> span() const { return idx; }
};

/**
 * Reusable typed buffer one morsel's decode of one column lands in:
 * `ints` for Int columns, `chars` (column-width bytes per selected
 * row) for Char columns, `codes` for dictionary codes of
 * dict-encoded Char columns. Entry i corresponds to the i-th entry
 * of the selection the gather ran over.
 */
struct ColumnBatch
{
    AlignedVec<std::int64_t> ints;
    AlignedVec<std::uint8_t> chars;
    AlignedVec<std::uint32_t> codes;
};

/**
 * Batched column access over one table store: decodes one column for
 * a whole selection per call. Unfragmented columns stream through
 * TableLayout::strideAccess + TableStore::partBytes (per
 * block-circulant block segment, so each segment is one contiguous
 * strided read); fragmented columns fall back to the per-row
 * fragment gather. No scratch-buffer view ever escapes a call.
 */
class BatchColumnReader
{
  public:
    BatchColumnReader(const storage::TableStore &store,
                      const std::string &column);
    BatchColumnReader(const storage::TableStore &store, ColumnId c);

    const format::Column &column() const { return *column_; }

    /** True when the zero-copy stride path is available. */
    bool strided() const { return access_.has_value(); }

    /** Decode rows (m.base + sel[i]) into out.ints[0..sel.size()). */
    void gatherInts(const Morsel &m,
                    std::span<const std::uint32_t> sel,
                    ColumnBatch &out) const;

    /** Copy raw bytes of rows (m.base + sel[i]) into out.chars. */
    void gatherChars(const Morsel &m,
                     std::span<const std::uint32_t> sel,
                     ColumnBatch &out) const;

    /** Frozen dictionary of this column, or nullptr. */
    const format::ColumnDictionary *
    dict() const
    {
        return store_->dictionary(col_);
    }

    /**
     * True when dictionary codes can stand in for the raw bytes of
     * this morsel: data region (delta rows carry no codes) and every
     * post-freeze write found its value in the frozen table.
     */
    bool
    dictUsable(const Morsel &m) const
    {
        return m.reg == storage::Region::Data && dict() != nullptr &&
               store_->dictFullyCoded(col_);
    }

    /** Unpack dict codes of rows (m.base + sel[i]) into out.codes.
     *  Only valid when dictUsable(m). */
    void gatherCodes(const Morsel &m,
                     std::span<const std::uint32_t> sel,
                     ColumnBatch &out) const;

  private:
    /** Per-circulant-block segmentation shared by both gathers. */
    template <typename Emit>
    void forEachStrideSegment(const Morsel &m,
                              std::span<const std::uint32_t> sel,
                              Emit &&emit) const;

    const storage::TableStore *store_;
    const format::Column *column_;
    ColumnId col_;
    std::optional<format::StrideAccess> access_;
    mutable std::vector<std::uint8_t> buf_; ///< Fragment scratch.
};

/**
 * Dictionary fast path for one LIKE predicate: per-entry codes
 * (parallel to the current entry set) plus the pattern's match table
 * over the dictionary (cardinality + 1 entries, 1 = match; the
 * sentinel entry never matches). Both spans stay valid until the
 * context's next batch begins.
 */
struct DictFilterView
{
    std::span<const std::uint32_t> codes;
    std::span<const std::uint32_t> lut;
};

/**
 * Leaf resolution for one batch expression evaluation: maps column
 * references to value vectors parallel to the current entry set
 * (a morsel's surviving selection, or the expanded post-join
 * entries) and subquery references to their materialized tables.
 * Implementations own the gather scratch; spans stay valid until
 * the next provider call for the same column.
 */
class BatchExprContext
{
  public:
    virtual ~BatchExprContext() = default;

    /** Entries in the current batch. */
    virtual std::size_t entries() const = 0;

    /** Int column values of @p ref, one per entry. */
    virtual std::span<const std::int64_t> ints(const ColRef &ref) = 0;

    /**
     * Raw Char column payload of @p ref: width bytes per entry,
     * written to @p width. Contexts without char access (post-join
     * aggregate evaluation) fatal — those evaluate LIKE through
     * likeValues() instead.
     */
    virtual std::span<const std::uint8_t>
    chars(const ColRef &ref, std::uint32_t &width) = 0;

    /**
     * Per-entry values of SubqueryRef node @p ref: the context
     * resolves the plan's SubquerySpec keys against its own columns
     * and probes the materialized lookup (fatal in contexts without
     * subquery access — validatePlan keeps SubqueryRef inside probe
     * filters).
     */
    virtual std::span<const std::int64_t>
    subqueryValues(const Expr &ref) = 0;

    /**
     * 0/1 values of LIKE node @p e, one per entry. The default
     * evaluates raw bytes via chars(); morsel contexts override with
     * the dictionary code path when available, and post-join contexts
     * serve pre-evaluated vectors (decoded through the dictionary)
     * registered by the operator.
     */
    virtual std::span<const std::int64_t> likeValues(const Expr &e);

    /**
     * Dictionary fast path for a fused LIKE over column @p ref with
     * @p pattern: codes + match table parallel to the current entry
     * set, or nullopt when the column is not dict-encoded (or the
     * context has no dictionary access).
     */
    virtual std::optional<DictFilterView>
    dictLike(const ColRef &ref, const std::string &pattern)
    {
        (void)ref;
        (void)pattern;
        return std::nullopt;
    }

  protected:
    std::vector<std::int64_t> likeScratch_;
};

/**
 * Evaluate @p e column-at-a-time over the context's entries into
 * @p out (resized to entries()). Uses the shared IR semantics
 * (olap/expr.hpp): wrapping arithmetic, guarded division, 0/1
 * booleans.
 */
void evalExprBatch(const Expr &e, BatchExprContext &ctx,
                   std::vector<std::int64_t> &out);

/**
 * Predicate kernel: keep the selection entries where @p e is
 * nonzero. Comparison roots with one literal side and bare (negated)
 * LIKE roots run fused — the compare/match compacts the selection
 * directly off the gathered column without materializing a boolean
 * vector. @p sel must have exactly ctx.entries() entries.
 */
void filterExprBatch(const Expr &e, BatchExprContext &ctx,
                     SelectionVector &sel);

/**
 * LIKE predicate kernel over char payloads of @p width bytes per
 * selected row: keep sel[i] iff likeMatch(payload) != negate.
 * @p chars is parallel to @p sel.
 */
void filterCharLike(std::span<const std::uint8_t> chars,
                    std::uint32_t width, SelectionVector &sel,
                    std::string_view pattern, bool negate);

/**
 * Fill @p sel with the snapshot-visible rows of morsel @p m
 * (word-level extraction from the region's visibility bitmap).
 */
void visibleRows(const storage::TableStore &store, const Morsel &m,
                 SelectionVector &sel);

/**
 * Range predicate kernel: keep sel[i] iff lo <= vals[i] <= hi.
 * @p vals is parallel to @p sel (gathered over it).
 */
void filterIntRange(std::span<const std::int64_t> vals,
                    SelectionVector &sel, std::int64_t lo,
                    std::int64_t hi);

/**
 * Prefix predicate kernel over char payloads of @p width bytes per
 * selected row: keep sel[i] iff (payload starts with prefix) XOR
 * negate. @p chars is parallel to @p sel.
 */
void filterCharPrefix(std::span<const std::uint8_t> chars,
                      std::uint32_t width, SelectionVector &sel,
                      std::string_view prefix, bool negate);

/**
 * The scan-task list of a pass over @p data_rows data-region and
 * @p delta_rows delta-region rows: one morsel per task, each
 * starting at a multiple of @p morsel_rows, every data morsel
 * (ascending) before every delta morsel (ascending). Concatenating
 * per-task output in task order therefore reproduces the serial row
 * order, whichever worker ran which task. The list depends on the
 * region sizes and the morsel size only — never on the worker
 * count — so anything computed per task is identical for every
 * execution configuration.
 */
std::vector<Morsel> scanMorsels(std::uint64_t data_rows,
                                std::uint64_t delta_rows,
                                std::uint32_t morsel_rows);

/** scanMorsels over a table store's visibility bitmaps. */
inline std::vector<Morsel>
scanMorsels(const storage::TableStore &store, std::uint32_t morsel_rows)
{
    return scanMorsels(store.dataVisible().size(),
                       store.deltaVisible().size(), morsel_rows);
}

/** Apply fn(Morsel) to every morsel of both regions, in scan-task
 *  order: the data region first, then the delta region. */
template <typename Fn>
void
forEachMorsel(const storage::TableStore &store, Fn &&fn,
              std::uint32_t morsel_rows = kMorselRows)
{
    for (const Morsel &m : scanMorsels(store, morsel_rows))
        fn(m);
}

} // namespace pushtap::olap
