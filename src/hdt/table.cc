#include "hdt/table.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <unordered_set>

namespace mitra::hdt {

Row RowView::ToRow() const {
  Row out;
  out.reserve(size());
  for (std::string_view cell : *this) out.emplace_back(cell);
  return out;
}

bool operator==(const RowView& a, const RowView& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

bool operator==(const RowView& a, const Row& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

std::strong_ordering operator<=>(const RowView& a, const RowView& b) {
  return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                b.begin(), b.end());
}

bool operator==(const RowsView& a, const RowsView& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

bool operator==(const RowsView& a, const std::vector<Row>& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

Result<Table> Table::FromRows(const std::vector<Row>& rows) {
  Table t;
  for (const Row& r : rows) {
    MITRA_RETURN_IF_ERROR(t.AppendRow(r));
  }
  return t;
}

Result<Table> Table::FromRows(std::vector<std::string> column_names,
                              const std::vector<Row>& rows) {
  Table t(std::move(column_names));
  for (const Row& r : rows) {
    MITRA_RETURN_IF_ERROR(t.AppendRow(r));
  }
  return t;
}

Status Table::AppendRow(const Row& row) {
  for (const std::string& cell : row) AppendCell(cell);
  return EndRow();
}

Status Table::AppendRow(const RowView& row) {
  if (row.table_ != this) {
    for (std::string_view cell : row) AppendCell(cell);
    return EndRow();
  }
  // The row's cells live in this arena, which may move while it grows:
  // make room first, so the views read below stay put.
  if (num_cols_ > 0) {
    const size_t first = row.row_ * num_cols_;
    Reserve(0, offsets_[first + num_cols_] - offsets_[first]);
    for (size_t c = 0; c < num_cols_; ++c) AppendCell(CellAt(first + c));
  }
  return EndRow();
}

void Table::Reserve(size_t rows, size_t bytes) {
  // Geometric, like the appends themselves: a reserve per row stays
  // linear.
  const size_t cells = std::max<size_t>(offsets_.size(), 1) + rows * num_cols_;
  if (cells > offsets_.capacity()) {
    offsets_.reserve(std::max(cells, 2 * offsets_.capacity()));
  }
  bytes_.reserve(bytes_.size() + bytes);
}

Status Table::EndRow() {
  const size_t row_start = num_rows_ * num_cols_;
  const size_t cells = offsets_.empty() ? 0 : offsets_.size() - 1 - row_start;
  Status st = Status::OK();
  if (bytes_.size() > kMaxBytes) {
    st = Status::ResourceExhausted(
        "table cell bytes exceed the arena's 32-bit offsets (" +
        std::to_string(kMaxBytes) + " bytes)");
  } else if (num_rows_ == 0 && num_cols_ == 0) {
    num_cols_ = cells;
  } else if (cells != num_cols_) {
    st = Status::InvalidArgument("row width " + std::to_string(cells) +
                                 " does not match table width " +
                                 std::to_string(num_cols_));
  }
  if (!st.ok()) {
    if (!offsets_.empty()) {
      offsets_.resize(row_start + 1);
      bytes_.resize(offsets_.back());
    }
    return st;
  }
  ++num_rows_;
  return Status::OK();
}

void Table::ShrinkToFit() {
  bytes_.shrink_to_fit();
  offsets_.shrink_to_fit();
}

std::vector<std::string> Table::Column(size_t i) const {
  std::vector<std::string> out;
  out.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) out.emplace_back(cell(r, i));
  return out;
}

std::vector<std::string> Table::DistinctColumn(size_t i) const {
  std::vector<std::string> out;
  std::unordered_set<std::string_view> seen;
  for (size_t r = 0; r < num_rows_; ++r) {
    if (seen.insert(cell(r, i)).second) out.emplace_back(cell(r, i));
  }
  return out;
}

std::vector<size_t> Table::SortedRowOrder() const {
  std::vector<size_t> order(num_rows_);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return row(a) < row(b); });
  return order;
}

bool Table::BagEquals(const Table& other) const {
  if (num_cols_ != other.num_cols_ || num_rows_ != other.num_rows_) {
    return false;
  }
  const std::vector<size_t> a = SortedRowOrder();
  const std::vector<size_t> b = other.SortedRowOrder();
  for (size_t i = 0; i < a.size(); ++i) {
    if (row(a[i]) != other.row(b[i])) return false;
  }
  return true;
}

bool Table::BagSubsetOf(const Table& other) const {
  if (num_cols_ != other.num_cols_) return false;
  // A merge of the two sorted bags: each row of this must meet an equal,
  // not yet matched row of other.
  const std::vector<size_t> a = SortedRowOrder();
  const std::vector<size_t> b = other.SortedRowOrder();
  size_t j = 0;
  for (size_t i : a) {
    while (j < b.size() && other.row(b[j]) < row(i)) ++j;
    if (j == b.size() || other.row(b[j]) != row(i)) return false;
    ++j;
  }
  return true;
}

bool Table::ContainsRow(const Row& r) const {
  const RowsView all = rows();
  return std::find(all.begin(), all.end(), r) != all.end();
}

void Table::Dedup() {
  if (num_cols_ == 0) {  // every row is the empty row
    num_rows_ = std::min<size_t>(num_rows_, 1);
    return;
  }
  // A row hashes as its cells' bytes plus its cell boundaries: the row's
  // cells are contiguous in the arena.
  auto hash = [&](size_t r) {
    const size_t first = r * num_cols_;
    size_t h = std::hash<std::string_view>()(std::string_view(
        bytes_.data() + offsets_[first],
        offsets_[first + num_cols_] - offsets_[first]));
    for (size_t c = 1; c <= num_cols_; ++c) {
      h = h * 31 + (offsets_[first + c] - offsets_[first]);
    }
    return h;
  };
  auto equal = [&](size_t a, size_t b) { return row(a) == row(b); };
  std::unordered_set<size_t, decltype(hash), decltype(equal)> seen(
      num_rows_, hash, equal);
  std::vector<size_t> keep;
  keep.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    if (seen.insert(r).second) keep.push_back(r);
  }
  if (keep.size() != num_rows_) KeepRows(keep);
}

void Table::SortRows() { KeepRows(SortedRowOrder()); }

void Table::KeepRows(const std::vector<size_t>& order) {
  if (num_cols_ == 0) {
    num_rows_ = order.size();
    return;
  }
  Table out(num_cols_);
  out.column_names_ = column_names_;
  size_t bytes = 0;
  for (size_t r : order) {
    bytes += offsets_[(r + 1) * num_cols_] - offsets_[r * num_cols_];
  }
  out.Reserve(order.size(), bytes);
  for (size_t r : order) {
    for (size_t c = 0; c < num_cols_; ++c) out.AppendCell(cell(r, c));
    (void)out.EndRow();  // same width, fewer bytes: cannot fail
  }
  *this = std::move(out);
}

std::string Table::ToString() const {
  std::vector<size_t> width(num_cols_, 0);
  for (size_t i = 0; i < num_cols_; ++i) {
    if (i < column_names_.size()) width[i] = column_names_[i].size();
  }
  for (size_t r = 0; r < num_rows_; ++r) {
    for (size_t i = 0; i < num_cols_; ++i) {
      width[i] = std::max(width[i], cell(r, i).size());
    }
  }
  std::string out;
  auto emit_row = [&](auto&& cell_of, size_t num_cells) {
    out += "|";
    for (size_t i = 0; i < num_cols_; ++i) {
      const std::string_view c =
          i < num_cells ? std::string_view(cell_of(i)) : std::string_view();
      out += ' ';
      out += c;
      out.append(width[i] - c.size(), ' ');
      out += " |";
    }
    out += "\n";
  };
  if (!column_names_.empty()) {
    emit_row([&](size_t i) -> const std::string& { return column_names_[i]; },
             column_names_.size());
    out += "|";
    for (size_t i = 0; i < num_cols_; ++i) {
      out += std::string(width[i] + 2, '-') + "|";
    }
    out += "\n";
  }
  for (size_t r = 0; r < num_rows_; ++r) {
    emit_row([&](size_t i) { return cell(r, i); }, num_cols_);
  }
  return out;
}

}  // namespace mitra::hdt
