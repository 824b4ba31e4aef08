#include "format/dictionary.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"

namespace pushtap::format {

namespace {

std::uint32_t
codeWidthFor(std::uint32_t code_count)
{
    if (code_count <= (1u << 8))
        return 1;
    if (code_count <= (1u << 16))
        return 2;
    return 4;
}

} // namespace

ColumnDictionary::ColumnDictionary(std::uint32_t width,
                                   std::vector<std::string> distinct)
    : width_(width)
{
    std::sort(distinct.begin(), distinct.end());
    cardinality_ = static_cast<std::uint32_t>(distinct.size());
    codeWidth_ = codeWidthFor(cardinality_ + 1);
    values_.reserve(static_cast<std::size_t>(cardinality_) * width_);
    codeOf_.reserve(cardinality_);
    for (std::uint32_t c = 0; c < cardinality_; ++c) {
        const std::string &v = distinct[c];
        if (v.size() != width_)
            fatal("dictionary value width {} != column width {}",
                  v.size(), width_);
        values_.insert(values_.end(), v.begin(), v.end());
        codeOf_.emplace(v, c);
    }
}

std::uint32_t
ColumnDictionary::encode(std::span<const std::uint8_t> bytes) const
{
    const auto it = codeOf_.find(std::string_view(
        reinterpret_cast<const char *>(bytes.data()), width_));
    return it == codeOf_.end() ? sentinel() : it->second;
}

std::span<const std::uint8_t>
ColumnDictionary::value(std::uint32_t code) const
{
    return std::span<const std::uint8_t>(values_)
        .subspan(static_cast<std::size_t>(code) * width_, width_);
}

std::vector<std::uint32_t>
ColumnDictionary::matchTable(
    const std::function<bool(std::span<const std::uint8_t>)> &pred)
    const
{
    std::vector<std::uint32_t> lut(cardinality_ + 1, 0);
    for (std::uint32_t c = 0; c < cardinality_; ++c)
        lut[c] = pred(value(c)) ? 1u : 0u;
    return lut;
}

bool
DictionaryBuilder::add(std::span<const std::uint8_t> bytes)
{
    if (overflowed_)
        return false;
    std::string key(bytes.begin(), bytes.begin() + width_);
    seen_.emplace(std::move(key), 0u);
    if (seen_.size() > maxCardinality_) {
        overflowed_ = true;
        seen_.clear();
        return false;
    }
    return true;
}

std::optional<ColumnDictionary>
DictionaryBuilder::freeze() &&
{
    if (overflowed_ || seen_.empty())
        return std::nullopt;
    std::vector<std::string> distinct;
    distinct.reserve(seen_.size());
    for (auto &kv : seen_)
        distinct.push_back(kv.first);
    return ColumnDictionary(width_, std::move(distinct));
}

} // namespace pushtap::format
