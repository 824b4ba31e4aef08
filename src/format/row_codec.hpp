#pragma once

/**
 * @file
 * Byte-level data re-layout (section 6.3): converts between a row's
 * canonical packed representation (what the CPU operates on in cache)
 * and its scattered placement across parts/devices in the unified
 * format. Invoked only when loading a row from DRAM and when pushing
 * a modified row back at commit. RowCodec compiles the layout into a
 * flat copy plan per rotation class, so a row moves with one small
 * copy per plan entry instead of a walk over parts, slots and
 * fragments.
 */

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "format/block_circulant.hpp"
#include "format/layout.hpp"

namespace pushtap::format {

/**
 * Batch-decode entry points. Both stream one column for a whole
 * selection of rows laid out with a fixed byte stride — the CPU-side
 * analog of a PIM unit's serial column read, and the primitive the
 * morsel executor builds on. `base` points at the selection's first
 * row's column bytes; row offsets[i]'s value lives at
 * base + offsets[i] * stride.
 */

/** Decode (sign-extending Int columns) into out[0..offsets.size()). */
void decodeIntStride(const Column &col, const std::uint8_t *base,
                     std::size_t stride,
                     std::span<const std::uint32_t> offsets,
                     std::int64_t *out);

/** Copy col.width raw bytes per row into out (offsets.size()*width). */
void gatherCharsStride(const Column &col, const std::uint8_t *base,
                       std::size_t stride,
                       std::span<const std::uint32_t> offsets,
                       std::uint8_t *out);

/**
 * One region's bytes of one part on one device (a *lane*): row r's
 * slot of the part starts at base + r * stride. A region's lanes are
 * numbered part-major, part * devices + device.
 */
struct Lane
{
    std::uint8_t *base = nullptr;
    std::uint64_t stride = 0; ///< The part's rowWidth.
};

/**
 * One byte move of a row re-layout: bytes bytes at offset slotOffset
 * of the row's slot in lane `lane`, and at canonOffset of the
 * canonical row.
 */
struct RowCopy
{
    std::uint32_t lane;
    std::uint32_t slotOffset;
    std::uint32_t canonOffset;
    std::uint32_t bytes;
};

/**
 * The row re-layout of one table as a compiled copy plan. The
 * block-circulant rotation only permutes which device holds each
 * slot, so every row of one rotation class moves the same bytes
 * between the same lanes: the codec lists them once per class, in
 * layout order (part, slot, fragment), and merges fragments that
 * follow each other both in the slot and in the canonical row into
 * one copy. scatter and gather walk the plan of the row's class, one
 * inline small copy per entry.
 */
class RowCodec
{
  public:
    RowCodec(const TableLayout &layout, const BlockCirculant &circulant);

    const TableLayout &layout() const { return *layout_; }
    const BlockCirculant &circulant() const { return circulant_; }

    /** The copy plan of row @p r's rotation class. */
    std::span<const RowCopy>
    plan(RowId r) const
    {
        const std::size_t cls = circulant_.blockOf(r) % classes_;
        return {copies_.data() + cls * perClass_, perClass_};
    }

    /** Scatter canonical @p row bytes of row @p r into @p lanes. */
    void scatter(RowId r, std::span<const std::uint8_t> row,
                 std::span<const Lane> lanes) const;

    /** Gather row @p r from @p lanes into canonical @p row bytes. */
    void gather(RowId r, std::span<const Lane> lanes,
                std::span<std::uint8_t> row) const;

    /**
     * Number of layout fragments one row re-layout moves (the
     * CPU-side cost driver of the +3.5% OLTP overhead, Fig. 9(a)).
     * It counts fragments, not the plan's merged copies: the model
     * prices the paper's per-fragment re-layout.
     */
    std::uint32_t fragmentsPerRow() const;

  private:
    /** Panic unless @p row and @p lanes fit this codec's rows. */
    void checkSizes(const char *op, std::size_t row,
                    std::size_t lanes) const;

    const TableLayout *layout_;
    BlockCirculant circulant_;
    /** Rotation classes: devices with rotation on, else 1. */
    std::uint32_t classes_;
    /** Copies per class; class c's plan starts at c * perClass_. */
    std::size_t perClass_ = 0;
    std::vector<RowCopy> copies_;
};

} // namespace pushtap::format
