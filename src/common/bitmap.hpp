#pragma once

/**
 * @file
 * Dense dynamic bitmap used for MVCC snapshot encoding (section 5.2 of
 * the paper). One bit per row; bit i == 1 means row i is visible in
 * the snapshot.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace pushtap {

class Bitmap
{
  public:
    Bitmap() = default;

    explicit Bitmap(std::size_t nbits, bool initial = false)
    {
        resize(nbits, initial);
    }

    void
    resize(std::size_t nbits, bool initial = false)
    {
        nbits_ = nbits;
        words_.assign((nbits + 63) / 64,
                      initial ? ~std::uint64_t{0} : std::uint64_t{0});
        trimTail();
    }

    /** Grow to @p nbits, preserving existing bits (new bits are 0). */
    void
    grow(std::size_t nbits)
    {
        if (nbits <= nbits_)
            return;
        nbits_ = nbits;
        words_.resize((nbits + 63) / 64, 0);
    }

    std::size_t size() const { return nbits_; }

    /** Storage footprint in bytes (what a per-device copy costs). */
    Bytes storageBytes() const { return words_.size() * sizeof(std::uint64_t); }

    bool
    test(std::size_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1ULL;
    }

    void
    set(std::size_t i, bool v = true)
    {
        if (v)
            words_[i >> 6] |= (1ULL << (i & 63));
        else
            words_[i >> 6] &= ~(1ULL << (i & 63));
    }

    void clear(std::size_t i) { set(i, false); }

    void
    setAll(bool v)
    {
        for (auto &w : words_)
            w = v ? ~std::uint64_t{0} : 0;
        trimTail();
    }

    /** Number of set bits. */
    std::size_t
    count() const
    {
        std::size_t c = 0;
        for (auto w : words_)
            c += static_cast<std::size_t>(__builtin_popcountll(w));
        return c;
    }

    /**
     * Index of the first set bit at or after @p from, or size() if none.
     * Lets PIM-side scans skip invisible regions cheaply.
     */
    std::size_t
    findNext(std::size_t from) const
    {
        if (from >= nbits_)
            return nbits_;
        std::size_t wi = from >> 6;
        std::uint64_t w = words_[wi] & (~std::uint64_t{0} << (from & 63));
        while (true) {
            if (w != 0) {
                const std::size_t bit =
                    (wi << 6) +
                    static_cast<std::size_t>(__builtin_ctzll(w));
                return bit < nbits_ ? bit : nbits_;
            }
            if (++wi >= words_.size())
                return nbits_;
            w = words_[wi];
        }
    }

    /**
     * Append the offsets (i - from) of every set bit i in
     * [from, to) to @p out, ascending. Word-at-a-time: this is how
     * the batch executor turns a snapshot bitmap range into a
     * morsel's selection vector without walking bit-by-bit.
     * Templated on the output vector so both std::vector and the
     * executor's 64-byte-aligned vectors work.
     */
    template <typename U32Vec>
    void
    collectSetBits(std::size_t from, std::size_t to,
                   U32Vec &out) const
    {
        if (to > nbits_)
            to = nbits_;
        if (from >= to)
            return;
        std::size_t wi = from >> 6;
        const std::size_t wlast = (to - 1) >> 6;
        for (; wi <= wlast; ++wi) {
            std::uint64_t w = words_[wi];
            if (wi == from >> 6)
                w &= ~std::uint64_t{0} << (from & 63);
            if (wi == wlast && (to & 63) != 0)
                w &= ~std::uint64_t{0} >> (64 - (to & 63));
            while (w != 0) {
                const std::size_t bit =
                    (wi << 6) +
                    static_cast<std::size_t>(__builtin_ctzll(w));
                out.push_back(static_cast<std::uint32_t>(bit - from));
                w &= w - 1;
            }
        }
    }

    bool
    operator==(const Bitmap &o) const
    {
        return nbits_ == o.nbits_ && words_ == o.words_;
    }

    /** Direct word access (for modelling bitmap transfer volumes). */
    const std::vector<std::uint64_t> &words() const { return words_; }

  private:
    void
    trimTail()
    {
        if (nbits_ % 64 != 0 && !words_.empty())
            words_.back() &= (~std::uint64_t{0}) >> (64 - nbits_ % 64);
    }

    std::size_t nbits_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace pushtap
