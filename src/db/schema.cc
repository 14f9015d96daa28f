#include "db/schema.h"

#include <set>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/json_escape.h"

namespace mitra::db {

namespace {

/// Table names become file names under an output directory (merged
/// tables, shards), so each must be one plain path component: not empty,
/// `.` or `..`, and free of `/`, NUL and other control bytes.
bool IsPlainPathComponent(const std::string& name) {
  if (name.empty() || name == "." || name == "..") return false;
  for (char c : name) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == '/' || u < 0x20 || u == 0x7f) return false;
  }
  return true;
}

}  // namespace

TableDef DataOnlyTable(std::string name, size_t num_columns) {
  TableDef def;
  def.name = std::move(name);
  for (size_t c = 0; c < num_columns; ++c) {
    def.columns.push_back(
        ColumnDef{"c" + std::to_string(c), ColumnKind::kData, ""});
  }
  return def;
}

size_t TableDef::NumDataColumns() const {
  size_t n = 0;
  for (const ColumnDef& c : columns) {
    if (c.kind == ColumnKind::kData) ++n;
  }
  return n;
}

int TableDef::PrimaryKeyIndex() const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i].kind == ColumnKind::kPrimaryKey) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

const TableDef* DatabaseSchema::FindTable(const std::string& name) const {
  for (const TableDef& t : tables) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

Status DatabaseSchema::Validate() const {
  std::set<std::string> names;
  for (const TableDef& t : tables) {
    if (!IsPlainPathComponent(t.name)) {
      return Status::InvalidArgument(
          "table name \"" + common::EscapeJsonString(t.name) +
          "\" is not one plain path component (no '/', '.', '..' or "
          "control bytes)");
    }
    if (!names.insert(t.name).second) {
      return Status::InvalidArgument("duplicate table name: " + t.name);
    }
    int pk_count = 0;
    std::set<std::string> col_names;
    for (const ColumnDef& c : t.columns) {
      if (!col_names.insert(c.name).second) {
        return Status::InvalidArgument("duplicate column " + c.name +
                                       " in table " + t.name);
      }
      if (c.kind == ColumnKind::kPrimaryKey) ++pk_count;
      if (c.kind == ColumnKind::kForeignKey && c.references.empty()) {
        return Status::InvalidArgument("foreign key " + t.name + "." +
                                       c.name + " references no table");
      }
    }
    if (pk_count > 1) {
      return Status::InvalidArgument("table " + t.name +
                                     " has multiple primary keys");
    }
    if (t.NumDataColumns() == 0) {
      return Status::InvalidArgument("table " + t.name +
                                     " has no data columns");
    }
  }
  for (const TableDef& t : tables) {
    for (const ColumnDef& c : t.columns) {
      if (c.kind != ColumnKind::kForeignKey) continue;
      const TableDef* ref = FindTable(c.references);
      if (ref == nullptr) {
        return Status::InvalidArgument("foreign key " + t.name + "." +
                                       c.name + " references unknown table " +
                                       c.references);
      }
      if (ref->PrimaryKeyIndex() < 0) {
        return Status::InvalidArgument(
            "foreign key " + t.name + "." + c.name + " references table " +
            c.references + " which has no primary key");
      }
    }
  }
  return Status::OK();
}

size_t DatabaseSchema::TotalColumns() const {
  size_t n = 0;
  for (const TableDef& t : tables) n += t.columns.size();
  return n;
}

size_t Database::TotalRows() const {
  size_t n = 0;
  for (const auto& [name, table] : tables) n += table.NumRows();
  return n;
}

Status CheckPrimaryKeyUnique(const hdt::Table& table, size_t pk_col) {
  std::unordered_set<std::string_view> seen;
  seen.reserve(table.NumRows());
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const std::string_view key = table.cell(r, pk_col);
    if (!seen.insert(key).second) {
      return Status::InvalidArgument("duplicate primary key value: " +
                                     std::string(key));
    }
  }
  return Status::OK();
}

Status CheckForeignKeyIntegrity(const hdt::Table& table, size_t fk_col,
                                const hdt::Table& referenced,
                                size_t pk_col) {
  std::unordered_set<std::string_view> keys;
  keys.reserve(referenced.NumRows());
  for (size_t r = 0; r < referenced.NumRows(); ++r) {
    keys.insert(referenced.cell(r, pk_col));
  }
  for (size_t r = 0; r < table.NumRows(); ++r) {
    const std::string_view key = table.cell(r, fk_col);
    if (!keys.contains(key)) {
      return Status::InvalidArgument("dangling foreign key value: " +
                                     std::string(key));
    }
  }
  return Status::OK();
}

Status CheckDatabaseConstraints(const DatabaseSchema& schema,
                                const Database& db) {
  for (const TableDef& t : schema.tables) {
    auto it = db.tables.find(t.name);
    if (it == db.tables.end()) {
      return Status::InvalidArgument("missing table: " + t.name);
    }
    int pk = t.PrimaryKeyIndex();
    if (pk >= 0) {
      MITRA_RETURN_IF_ERROR(
          CheckPrimaryKeyUnique(it->second, static_cast<size_t>(pk)));
    }
    for (size_t c = 0; c < t.columns.size(); ++c) {
      if (t.columns[c].kind != ColumnKind::kForeignKey) continue;
      const TableDef* ref = schema.FindTable(t.columns[c].references);
      auto ref_it = db.tables.find(ref->name);
      if (ref_it == db.tables.end()) {
        return Status::InvalidArgument("missing referenced table: " +
                                       ref->name);
      }
      MITRA_RETURN_IF_ERROR(CheckForeignKeyIntegrity(
          it->second, c, ref_it->second,
          static_cast<size_t>(ref->PrimaryKeyIndex())));
    }
  }
  return Status::OK();
}

}  // namespace mitra::db
