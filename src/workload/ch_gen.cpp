#include "workload/ch_gen.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/log.hpp"

namespace pushtap::workload {

namespace {

const char *const kSyllables[] = {"BAR", "OUGHT", "ABLE", "PRI",
                                  "PRES", "ESE",   "ANTI", "CALLY",
                                  "ATION", "EYE"};

std::string
lastName(std::uint64_t n)
{
    return std::string(kSyllables[(n / 100) % 10]) +
           kSyllables[(n / 10) % 10] + kSyllables[n % 10];
}

std::string
randomText(Rng &rng, std::size_t len)
{
    std::string s(len, ' ');
    for (auto &c : s)
        c = static_cast<char>('a' + rng.below(26));
    return s;
}

/**
 * One generated row's writer: the k-th set call writes column k of
 * the schema, so no value looks its column up by name. Each call
 * still names its column, and a name that is not column k's — a
 * fillRow case out of schema order — panics; the compare of two short
 * names is all a value pays.
 */
class ColumnWriter
{
  public:
    ColumnWriter(const format::TableSchema &schema,
                 std::span<std::uint8_t> row)
        : v_(schema, row)
    {
    }

    void
    setInt(std::string_view name, std::int64_t value)
    {
        v_.setInt(next(name), value);
    }

    void
    setChars(std::string_view name, std::string_view s)
    {
        v_.setChars(next(name), s);
    }

  private:
    ColumnId
    next(std::string_view name)
    {
        const ColumnId c = next_++;
        const auto &col = v_.schema().column(c);
        if (col.name != name)
            panic("fillRow: column {} of {} is {}, not {}", c,
                  v_.schema().name(), col.name, name);
        return c;
    }

    RowView v_;
    ColumnId next_ = 0;
};

} // namespace

ChGenerator::ChGenerator(std::uint64_t seed, double scale)
    : seed_(seed), scale_(scale), counts_(chRowCounts(scale)),
      nWarehouses_(counts_.at(ChTable::Warehouse)),
      nDistricts_(counts_.at(ChTable::District)),
      nCustomers_(counts_.at(ChTable::Customer)),
      nItems_(counts_.at(ChTable::Item)),
      nOrders_(counts_.at(ChTable::Orders))
{
}

void
ChGenerator::fillRow(ChTable t, const format::TableSchema &schema,
                     RowId r, std::span<std::uint8_t> row) const
{
    std::fill(row.begin(), row.begin() + schema.rowBytes(), 0);
    // Every case sets its table's columns in schema order (an
    // extension's appended columns stay zero).
    ColumnWriter v(schema, row);
    Rng rng = rowRng(t, r);

    const std::uint64_t n_warehouses = nWarehouses_;
    const std::uint64_t n_districts = nDistricts_;
    const std::uint64_t n_customers = nCustomers_;
    const std::uint64_t n_items = nItems_;
    const std::uint64_t n_orders = nOrders_;

    switch (t) {
      case ChTable::Warehouse:
        v.setInt("w_id", static_cast<std::int64_t>(r));
        // std::string(..) + avoids the GCC 12 -Wrestrict false positive
        // on operator+(const char*, string&&) (GCC PR 105651).
        v.setChars("w_name", std::string("W") + std::to_string(r));
        v.setChars("w_street_1", randomText(rng, 12));
        v.setChars("w_street_2", randomText(rng, 12));
        v.setChars("w_city", randomText(rng, 10));
        v.setChars("w_state",
                   std::string(1, static_cast<char>(
                                      'A' + rng.below(26))) +
                       static_cast<char>('A' + rng.below(26)));
        v.setChars("w_zip", "123456789");
        v.setInt("w_tax", rng.inRange(0, 2000)); // basis points
        v.setInt("w_ytd", 30'000'000);
        break;
      case ChTable::District:
        v.setInt("d_id", static_cast<std::int64_t>(r % 10));
        v.setInt("d_w_id", static_cast<std::int64_t>(r / 10));
        v.setChars("d_name", std::string("D") + std::to_string(r));
        v.setChars("d_street_1", randomText(rng, 12));
        v.setChars("d_street_2", randomText(rng, 12));
        v.setChars("d_city", randomText(rng, 10));
        v.setChars("d_state", "AA");
        v.setChars("d_zip", "987654321");
        v.setInt("d_tax", rng.inRange(0, 2000));
        v.setInt("d_ytd", 3'000'000);
        // Runtime order ids start above every seed o_id so the
        // composite (o_id, d_id, w_id) order key stays unique across
        // inserts (CH join multiplicity and the PK index depend on
        // it).
        v.setInt("d_next_o_id", static_cast<std::int64_t>(n_orders));
        break;
      case ChTable::Customer:
        v.setInt("c_id", static_cast<std::int64_t>(r));
        v.setInt("c_d_id",
                 static_cast<std::int64_t>(r % n_districts % 10));
        v.setInt("c_w_id", static_cast<std::int64_t>(
                               r % n_districts / 10));
        v.setChars("c_first", randomText(rng, 10));
        v.setChars("c_middle", "OE");
        v.setChars("c_last", lastName(rng.below(1000)));
        v.setChars("c_street_1", randomText(rng, 12));
        v.setChars("c_street_2", randomText(rng, 12));
        v.setChars("c_city", randomText(rng, 10));
        v.setChars("c_state",
                   std::string(1, static_cast<char>(
                                      'A' + rng.below(26))) +
                       static_cast<char>('A' + rng.below(26)));
        v.setChars("c_zip", "111111111");
        v.setChars("c_phone", randomText(rng, 16));
        v.setInt("c_since", kDateBase - rng.inRange(0, 100000));
        v.setChars("c_credit", rng.flip(0.1) ? "BC" : "GC");
        v.setInt("c_credit_lim", 5'000'000);
        v.setInt("c_discount", rng.inRange(0, 5000));
        v.setInt("c_balance", -1000);
        v.setInt("c_ytd_payment", 1000);
        v.setInt("c_payment_cnt", 1);
        v.setInt("c_delivery_cnt", 0);
        v.setChars("c_data", randomText(rng, 100));
        break;
      case ChTable::History:
        v.setInt("h_c_id", rng.inRange(0, static_cast<std::int64_t>(
                                              n_customers - 1)));
        v.setInt("h_c_d_id", rng.inRange(0, 9));
        v.setInt("h_c_w_id",
                 rng.inRange(0, static_cast<std::int64_t>(
                                    n_warehouses - 1)));
        v.setInt("h_d_id", rng.inRange(0, 9));
        v.setInt("h_w_id", rng.inRange(0, static_cast<std::int64_t>(
                                              n_warehouses - 1)));
        v.setInt("h_date", kDateBase + static_cast<std::int64_t>(r));
        v.setInt("h_amount", 1000);
        v.setChars("h_data", randomText(rng, 12));
        break;
      case ChTable::NewOrder:
        v.setInt("no_o_id", static_cast<std::int64_t>(r % n_orders));
        v.setInt("no_d_id", static_cast<std::int64_t>(r % 10));
        v.setInt("no_w_id", rng.inRange(0, static_cast<std::int64_t>(
                                               n_warehouses - 1)));
        break;
      case ChTable::Orders:
        v.setInt("o_id", static_cast<std::int64_t>(r));
        v.setInt("o_d_id", static_cast<std::int64_t>(r % 10));
        v.setInt("o_w_id", static_cast<std::int64_t>(
                               r % n_districts / 10));
        v.setInt("o_c_id", rng.inRange(0, static_cast<std::int64_t>(
                                              n_customers - 1)));
        v.setInt("o_entry_d",
                 kDateBase + static_cast<std::int64_t>(r));
        v.setInt("o_carrier_id", rng.inRange(0, 9));
        v.setInt("o_ol_cnt",
                 static_cast<std::int64_t>(kLinesPerOrder));
        v.setInt("o_all_local", 1);
        break;
      case ChTable::OrderLine: {
        const std::uint64_t order = r / kLinesPerOrder;
        v.setInt("ol_o_id", static_cast<std::int64_t>(order));
        v.setInt("ol_d_id", static_cast<std::int64_t>(order % 10));
        v.setInt("ol_w_id", static_cast<std::int64_t>(
                                order % n_districts / 10));
        v.setInt("ol_number", static_cast<std::int64_t>(
                                  r % kLinesPerOrder + 1));
        v.setInt("ol_i_id", rng.inRange(0, static_cast<std::int64_t>(
                                               n_items - 1)));
        v.setInt("ol_supply_w_id",
                 rng.inRange(0, static_cast<std::int64_t>(
                                    n_warehouses - 1)));
        // Delivery dates track order entry so date-range predicates
        // select contiguous fractions of the table.
        v.setInt("ol_delivery_d",
                 kDateBase + static_cast<std::int64_t>(order) +
                     rng.inRange(1, 100));
        v.setInt("ol_quantity", rng.inRange(1, 10));
        v.setInt("ol_amount", rng.inRange(1, 999999));
        v.setChars("ol_dist_info", randomText(rng, 24));
        break;
      }
      case ChTable::Item:
        v.setInt("i_id", static_cast<std::int64_t>(r));
        v.setInt("i_im_id", rng.inRange(1, 10000));
        v.setChars("i_name", randomText(rng, 14));
        v.setInt("i_price", rng.inRange(100, 10000));
        // ~10% of items carry the "ORIGINAL" marker TPC-C uses and
        // CH queries filter on.
        v.setChars("i_data", rng.flip(0.1)
                                 ? "ORIGINAL" + randomText(rng, 20)
                                 : randomText(rng, 26));
        break;
      case ChTable::Stock:
        v.setInt("s_i_id", static_cast<std::int64_t>(r % n_items));
        v.setInt("s_w_id", static_cast<std::int64_t>(r / n_items));
        v.setInt("s_quantity", rng.inRange(10, 100));
        for (int d = 1; d <= 10; ++d) {
            char name[16];
            std::snprintf(name, sizeof(name), "s_dist_%02d", d);
            v.setChars(name, randomText(rng, 24));
        }
        v.setInt("s_ytd", 0);
        v.setInt("s_order_cnt", 0);
        v.setInt("s_remote_cnt", 0);
        v.setChars("s_data", rng.flip(0.1)
                                 ? "ORIGINAL" + randomText(rng, 20)
                                 : randomText(rng, 26));
        break;
    }
}

} // namespace pushtap::workload
