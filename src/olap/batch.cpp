#include "olap/batch.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "format/row_codec.hpp"
#include "olap/simd_kernels.hpp"

namespace pushtap::olap {

using storage::Region;

std::vector<Morsel>
scanMorsels(std::uint64_t data_rows, std::uint64_t delta_rows,
            std::uint32_t morsel_rows)
{
    std::vector<Morsel> tasks;
    tasks.reserve((data_rows + morsel_rows - 1) / morsel_rows +
                  (delta_rows + morsel_rows - 1) / morsel_rows);
    for (const auto &[reg, rows] :
         {std::pair{Region::Data, data_rows},
          std::pair{Region::Delta, delta_rows}})
        for (std::uint64_t b = 0; b < rows; b += morsel_rows)
            tasks.push_back(Morsel{
                reg, b,
                static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(morsel_rows, rows - b))});
    return tasks;
}

BatchColumnReader::BatchColumnReader(const storage::TableStore &store,
                                     const std::string &column)
    : BatchColumnReader(store, store.schema().columnId(column))
{
}

BatchColumnReader::BatchColumnReader(const storage::TableStore &store,
                                     ColumnId c)
    : store_(&store),
      column_(&store.schema().column(c)),
      col_(c),
      access_(store.layout().strideAccess(c))
{
    if (!access_)
        buf_.resize(column_->width);
}

/**
 * Split the selection into runs that stay inside one block-circulant
 * block (the device holding the slot is constant within a block) and
 * hand each run's strided base pointer to @p emit(sub_sel, base,
 * out_index). Requires the stride path (access_ set).
 */
template <typename Emit>
void
BatchColumnReader::forEachStrideSegment(
    const Morsel &m, std::span<const std::uint32_t> sel,
    Emit &&emit) const
{
    const auto &bc = store_->circulant();
    std::size_t i = 0;
    while (i < sel.size()) {
        const RowId row = m.base + sel[i];
        std::size_t j = i + 1;
        if (bc.enabled()) {
            const RowId block_end =
                (bc.blockOf(row) + 1) * bc.blockRows();
            while (j < sel.size() && m.base + sel[j] < block_end)
                ++j;
        } else {
            j = sel.size();
        }
        const std::uint32_t dev = bc.deviceFor(access_->slot, row);
        const std::uint8_t *base =
            store_->partBytes(m.reg, access_->part, dev).data() +
            access_->slotOffset + m.base * access_->stride;
        emit(sel.subspan(i, j - i), base, i);
        i = j;
    }
}

void
BatchColumnReader::gatherInts(const Morsel &m,
                              std::span<const std::uint32_t> sel,
                              ColumnBatch &out) const
{
    out.ints.resize(sel.size());
    if (!access_) {
        for (std::size_t i = 0; i < sel.size(); ++i) {
            store_->readColumnBytes(m.reg, col_, m.base + sel[i],
                                    buf_);
            out.ints[i] = format::decodeValue(*column_, buf_);
        }
        return;
    }
    forEachStrideSegment(
        m, sel,
        [&](std::span<const std::uint32_t> seg,
            const std::uint8_t *base, std::size_t at) {
            if (!simd::decodeIntStride(*column_, base,
                                       access_->stride, seg,
                                       out.ints.data() + at))
                format::decodeIntStride(*column_, base,
                                        access_->stride, seg,
                                        out.ints.data() + at);
        });
}

void
BatchColumnReader::gatherChars(const Morsel &m,
                               std::span<const std::uint32_t> sel,
                               ColumnBatch &out) const
{
    const std::uint32_t w = column_->width;
    out.chars.resize(sel.size() * w);
    if (!access_) {
        for (std::size_t i = 0; i < sel.size(); ++i)
            store_->readColumnBytes(
                m.reg, col_, m.base + sel[i],
                std::span<std::uint8_t>(out.chars).subspan(i * w, w));
        return;
    }
    forEachStrideSegment(
        m, sel,
        [&](std::span<const std::uint32_t> seg,
            const std::uint8_t *base, std::size_t at) {
            format::gatherCharsStride(*column_, base,
                                      access_->stride, seg,
                                      out.chars.data() + at * w);
        });
}

void
BatchColumnReader::gatherCodes(const Morsel &m,
                               std::span<const std::uint32_t> sel,
                               ColumnBatch &out) const
{
    const format::ColumnDictionary *d = dict();
    if (m.reg != Region::Data || d == nullptr)
        fatal("gatherCodes: column {} has no data-region codes",
              column_->name);
    simd::gatherDictCodes(store_->dictDataCodes(col_),
                          d->codeWidthBytes(), m.base, sel,
                          out.codes);
}

void
visibleRows(const storage::TableStore &store, const Morsel &m,
            SelectionVector &sel)
{
    sel.clear();
    const Bitmap &bm = m.reg == Region::Data ? store.dataVisible()
                                             : store.deltaVisible();
    bm.collectSetBits(m.base, m.base + m.count, sel.idx);
}

void
filterIntRange(std::span<const std::int64_t> vals,
               SelectionVector &sel, std::int64_t lo, std::int64_t hi)
{
    simd::filterRange(vals, sel, lo, hi);
}

std::span<const std::int64_t>
BatchExprContext::likeValues(const Expr &e)
{
    std::uint32_t w = 0;
    const auto payload = chars(e.col, w);
    const std::size_t n = entries();
    likeScratch_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        likeScratch_[i] =
            likeMatch(payload.subspan(i * w, w), e.pattern) ? 1 : 0;
    return likeScratch_;
}

namespace {

/**
 * Recursive column-at-a-time evaluation. Column leaves copy the
 * provider span (the provider may reuse its scratch across calls
 * for different columns); everything else computes in place over
 * freshly sized vectors — morsel-bounded, so the transient
 * allocations stay small and cache-friendly.
 */
void
evalRec(const Expr &e, BatchExprContext &ctx,
        std::vector<std::int64_t> &out)
{
    const std::size_t n = ctx.entries();
    switch (e.op) {
      case ExprOp::IntLit:
        out.assign(n, e.lit);
        return;
      case ExprOp::Column: {
        const auto vals = ctx.ints(e.col);
        out.assign(vals.begin(), vals.end());
        return;
      }
      case ExprOp::Like: {
        // The context picks the fastest route: dictionary codes,
        // pre-evaluated vectors (post-join), or raw byte matching.
        const auto vals = ctx.likeValues(e);
        out.assign(vals.begin(), vals.end());
        return;
      }
      case ExprOp::SubqueryRef: {
        const auto vals = ctx.subqueryValues(e);
        out.assign(vals.begin(), vals.end());
        return;
      }
      case ExprOp::Not: {
        evalRec(*e.kids[0], ctx, out);
        for (auto &v : out)
            v = v == 0 ? 1 : 0;
        return;
      }
      case ExprOp::CaseWhen: {
        std::vector<std::int64_t> cond, then_v, else_v;
        evalRec(*e.kids[0], ctx, cond);
        evalRec(*e.kids[1], ctx, then_v);
        evalRec(*e.kids[2], ctx, else_v);
        out.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            out[i] = cond[i] != 0 ? then_v[i] : else_v[i];
        return;
      }
      default: {
        std::vector<std::int64_t> rhs;
        evalRec(*e.kids[0], ctx, out);
        evalRec(*e.kids[1], ctx, rhs);
        for (std::size_t i = 0; i < n; ++i)
            out[i] = exprApply(e.op, out[i], rhs[i]);
        return;
      }
    }
}

} // namespace

void
evalExprBatch(const Expr &e, BatchExprContext &ctx,
              std::vector<std::int64_t> &out)
{
    evalRec(e, ctx, out);
}

void
filterExprBatch(const Expr &e, BatchExprContext &ctx,
                SelectionVector &sel)
{
    // Fused compare+select: a comparison against a literal compacts
    // the selection straight off the gathered column.
    const bool cmp_root =
        e.op == ExprOp::Eq || e.op == ExprOp::Ne ||
        e.op == ExprOp::Lt || e.op == ExprOp::Le ||
        e.op == ExprOp::Gt || e.op == ExprOp::Ge;
    if (cmp_root) {
        const Expr *lhs = e.kids[0].get();
        const Expr *rhs = e.kids[1].get();
        if (lhs->op == ExprOp::Column &&
            rhs->op == ExprOp::IntLit) {
            simd::filterCompare(ctx.ints(lhs->col), sel, e.op,
                                rhs->lit);
            return;
        }
        if (lhs->op == ExprOp::IntLit &&
            rhs->op == ExprOp::Column) {
            // lit op val == val flip(op) lit.
            simd::filterCompare(ctx.ints(rhs->col), sel,
                                simd::flipCompare(e.op), lhs->lit);
            return;
        }
    }
    // Fused (negated) LIKE: dictionary codes when the column is
    // dict-encoded (pattern pre-evaluated once per distinct value),
    // raw char payload otherwise.
    const bool not_like =
        e.op == ExprOp::Not && e.kids[0]->op == ExprOp::Like;
    if (e.op == ExprOp::Like || not_like) {
        const Expr &like = not_like ? *e.kids[0] : e;
        if (const auto dv = ctx.dictLike(like.col, like.pattern)) {
            simd::filterDictCodes(dv->codes, sel, dv->lut, not_like);
            return;
        }
        std::uint32_t w = 0;
        const auto payload = ctx.chars(like.col, w);
        filterCharLike(payload, w, sel, like.pattern, not_like);
        return;
    }

    std::vector<std::int64_t> keep;
    evalRec(e, ctx, keep);
    simd::compactByNonzero(keep, sel);
}

void
filterCharLike(std::span<const std::uint8_t> chars,
               std::uint32_t width, SelectionVector &sel,
               std::string_view pattern, bool negate)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < sel.idx.size(); ++i) {
        const bool match =
            likeMatch(chars.subspan(i * width, width), pattern);
        sel.idx[n] = sel.idx[i];
        n += static_cast<std::size_t>(match != negate);
    }
    sel.idx.resize(n);
}

void
filterCharPrefix(std::span<const std::uint8_t> chars,
                 std::uint32_t width, SelectionVector &sel,
                 std::string_view prefix, bool negate)
{
    // A prefix longer than the column can never match (every prefix
    // byte must compare equal).
    const bool possible = prefix.size() <= width;
    std::size_t n = 0;
    for (std::size_t i = 0; i < sel.idx.size(); ++i) {
        const bool match =
            possible &&
            std::memcmp(chars.data() + i * width, prefix.data(),
                        prefix.size()) == 0;
        sel.idx[n] = sel.idx[i];
        n += static_cast<std::size_t>(match != negate);
    }
    sel.idx.resize(n);
}

} // namespace pushtap::olap
