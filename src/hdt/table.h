#ifndef MITRA_HDT_TABLE_H_
#define MITRA_HDT_TABLE_H_

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

/// \file table.h
/// Relational table model. As in the paper (§4), a table is a *bag* of
/// tuples; `column(R, i)` denotes the i'th column. Cells are strings —
/// the data payloads of HDT leaves.
///
/// A Table keeps every cell in one byte arena, row-major, with one 32-bit
/// end offset per cell: a migrated table costs its cell bytes plus four
/// bytes per cell, and building one row allocates nothing. Rows are read
/// through views (RowView, whose cells are `std::string_view`s into the
/// arena); a view converts to an owned `Row` where a caller needs one.

namespace mitra::hdt {

/// A row of cell values, owned: what tables are built from and what a
/// RowView converts to.
using Row = std::vector<std::string>;

class Table;

/// Iterator over positions [0, n) of a table's rows or of one row's
/// cells. It yields views by value (`operator*` returns the view, not a
/// reference), so it is an input iterator; the views themselves index in
/// O(1).
template <typename View, typename Owner>
class TablePositionIterator {
 public:
  using iterator_category = std::input_iterator_tag;
  using value_type = View;
  using difference_type = std::ptrdiff_t;
  using reference = View;
  using pointer = void;

  TablePositionIterator() = default;
  TablePositionIterator(Owner owner, size_t pos) : owner_(owner), pos_(pos) {}

  View operator*() const { return owner_[pos_]; }
  TablePositionIterator& operator++() {
    ++pos_;
    return *this;
  }
  TablePositionIterator operator++(int) {
    TablePositionIterator old = *this;
    ++pos_;
    return old;
  }
  friend bool operator==(const TablePositionIterator& a,
                         const TablePositionIterator& b) {
    return a.pos_ == b.pos_;
  }

 private:
  Owner owner_{};
  size_t pos_ = 0;
};

/// One row of a Table, by position. The view stays valid while the table
/// lives, across appends; the `string_view`s its cells return stay valid
/// until the table next changes.
class RowView {
 public:
  using iterator = TablePositionIterator<std::string_view, RowView>;
  using const_iterator = iterator;
  using value_type = std::string_view;

  RowView() = default;

  size_t size() const;
  std::string_view operator[](size_t c) const;
  iterator begin() const { return iterator(*this, 0); }
  iterator end() const { return iterator(*this, size()); }

  /// An owned copy of the row.
  Row ToRow() const;
  operator Row() const { return ToRow(); }  // NOLINT: implicit by design

  friend bool operator==(const RowView& a, const RowView& b);
  friend bool operator==(const RowView& a, const Row& b);
  /// Lexicographic over cells, each compared as bytes: the order of
  /// `std::vector<std::string>`'s operator<.
  friend std::strong_ordering operator<=>(const RowView& a,
                                          const RowView& b);

 private:
  friend class RowsView;
  friend class Table;
  RowView(const Table* table, size_t row) : table_(table), row_(row) {}

  const Table* table_ = nullptr;
  size_t row_ = 0;
};

/// The rows of a Table: RowViews, indexed in O(1) and iterable.
class RowsView {
 public:
  using iterator = TablePositionIterator<RowView, RowsView>;
  using const_iterator = iterator;
  using value_type = RowView;

  RowsView() = default;

  size_t size() const;
  bool empty() const { return size() == 0; }
  RowView operator[](size_t r) const { return RowView(table_, r); }
  iterator begin() const { return iterator(*this, 0); }
  iterator end() const { return iterator(*this, size()); }

  /// Owned copies of the rows.
  std::vector<Row> ToRows() const { return {begin(), end()}; }

  /// Same row count and pairwise equal rows (std::vector<Row> equality).
  friend bool operator==(const RowsView& a, const RowsView& b);
  friend bool operator==(const RowsView& a, const std::vector<Row>& b);

 private:
  friend class Table;
  explicit RowsView(const Table* table) : table_(table) {}

  const Table* table_ = nullptr;
};

/// A bag-of-tuples relational table with optional column names.
class Table {
 public:
  /// The arena's limit: cell end offsets are 32-bit, so a table holds at
  /// most 4 GiB - 1 of cell bytes. A row that would pass it is refused
  /// with kResourceExhausted instead of wrapping an offset.
  static constexpr uint64_t kMaxBytes = UINT32_MAX;

  Table() = default;
  /// Creates an empty table with `num_cols` unnamed columns.
  explicit Table(size_t num_cols) : num_cols_(num_cols) {}
  /// Creates an empty table with the given column names.
  explicit Table(std::vector<std::string> column_names)
      : num_cols_(column_names.size()),
        column_names_(std::move(column_names)) {}

  /// Builds a table from row literals; all rows must have equal width.
  static Result<Table> FromRows(const std::vector<Row>& rows);
  /// Convenience overload for brace-literals in tests.
  static Result<Table> FromRows(std::vector<std::string> column_names,
                                const std::vector<Row>& rows);

  size_t NumCols() const { return num_cols_; }
  size_t NumRows() const { return num_rows_; }
  bool Empty() const { return num_rows_ == 0; }

  const std::vector<std::string>& column_names() const {
    return column_names_;
  }
  void set_column_names(std::vector<std::string> names) {
    column_names_ = std::move(names);
    num_cols_ = column_names_.size();
  }

  RowsView rows() const { return RowsView(this); }
  RowView row(size_t i) const { return RowView(this, i); }
  /// Cell (r, c); valid until the table next changes.
  std::string_view cell(size_t r, size_t c) const {
    return CellAt(r * num_cols_ + c);
  }

  /// Appends a row; must match NumCols (unless the table is still empty
  /// and width-less, in which case it fixes the width).
  Status AppendRow(const Row& row);
  /// Appends a row view's cells, which may be a row of this table.
  Status AppendRow(const RowView& row);

  /// In-place row building, for producers that write cells straight into
  /// the arena (the executor's projection, Migrator::BuildTable): one
  /// AppendCell per column, then EndRow. Nothing allocates once Reserve
  /// has made room.
  ///
  /// Makes room for `rows` more rows of `bytes` more cell bytes in all.
  void Reserve(size_t rows, size_t bytes);
  /// Appends one cell to the open row.
  void AppendCell(std::string_view bytes) {
    OpenCell();
    bytes_.append(bytes);
    CloseCell();
  }
  /// Appends one cell that `write(char* p)` formats at `p`, in at most
  /// `max_size` bytes, returning the end of what it wrote.
  template <typename Write>
  void AppendCell(size_t max_size, Write&& write) {
    OpenCell();
    const size_t start = bytes_.size();
    bytes_.resize(start + max_size);
    char* const first = bytes_.data() + start;
    bytes_.resize(start + static_cast<size_t>(write(first) - first));
    CloseCell();
  }
  /// Closes the open row. It must have NumCols() cells (a width-less
  /// empty table takes its width from it), and the arena must stay within
  /// kMaxBytes; otherwise the row is dropped and the error returned.
  Status EndRow();
  /// Returns the arena's spare capacity to the heap.
  void ShrinkToFit();

  /// The values of column `i`, in row order (a bag).
  std::vector<std::string> Column(size_t i) const;
  /// The distinct values of column `i`, in first-seen order.
  std::vector<std::string> DistinctColumn(size_t i) const;

  /// Bag equality: same width and same multiset of rows.
  bool BagEquals(const Table& other) const;
  /// Bag containment: every row of this occurs (with multiplicity) in other.
  bool BagSubsetOf(const Table& other) const;
  /// True if `r` occurs at least once.
  bool ContainsRow(const Row& r) const;

  /// Removes duplicate rows (keeps the first occurrence of each).
  void Dedup();
  /// Sorts rows lexicographically (canonical order for comparisons/tests):
  /// the order `std::sort` gives a `std::vector<Row>`.
  void SortRows();

  /// Renders as a compact aligned text table for logs and bench output.
  std::string ToString() const;

 private:
  friend class RowView;

  std::string_view CellAt(size_t i) const {
    return std::string_view(bytes_.data() + offsets_[i],
                            offsets_[i + 1] - offsets_[i]);
  }
  void OpenCell() {
    if (offsets_.empty()) offsets_.push_back(0);
  }
  void CloseCell() {
    offsets_.push_back(static_cast<uint32_t>(bytes_.size()));
  }
  /// Row indices in SortRows order.
  std::vector<size_t> SortedRowOrder() const;
  /// Rebuilds the arena with the rows `order` names, in that order.
  void KeepRows(const std::vector<size_t>& order);

  size_t num_cols_ = 0;
  size_t num_rows_ = 0;
  std::vector<std::string> column_names_;
  /// Every cell's bytes, row-major.
  std::string bytes_;
  /// offsets_[i] .. offsets_[i + 1] is cell i's byte range; empty until
  /// the first cell, then one entry more than there are cells.
  std::vector<uint32_t> offsets_;
};

inline size_t RowView::size() const { return table_->NumCols(); }

inline std::string_view RowView::operator[](size_t c) const {
  return table_->cell(row_, c);
}

inline size_t RowsView::size() const { return table_->NumRows(); }

}  // namespace mitra::hdt

#endif  // MITRA_HDT_TABLE_H_
