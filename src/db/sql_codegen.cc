#include "db/sql_codegen.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>

namespace mitra::db {

namespace {

/// Tables ordered so that every foreign key's target precedes its source
/// (Kahn's algorithm; self-references ignored for ordering purposes).
Result<std::vector<const TableDef*>> DependencyOrder(
    const DatabaseSchema& schema) {
  std::map<std::string, std::set<std::string>> deps;  // table → prerequisites
  for (const TableDef& t : schema.tables) {
    auto& d = deps[t.name];
    for (const ColumnDef& c : t.columns) {
      if (c.kind == ColumnKind::kForeignKey && c.references != t.name) {
        d.insert(c.references);
      }
    }
  }
  std::vector<const TableDef*> order;
  std::set<std::string> emitted;
  while (order.size() < schema.tables.size()) {
    bool progress = false;
    for (const TableDef& t : schema.tables) {
      if (emitted.count(t.name)) continue;
      bool ready = true;
      for (const std::string& d : deps[t.name]) {
        if (!emitted.count(d)) {
          ready = false;
          break;
        }
      }
      if (ready) {
        order.push_back(&t);
        emitted.insert(t.name);
        progress = true;
      }
    }
    if (!progress) {
      return Status::InvalidArgument(
          "foreign-key graph has a cycle across distinct tables; cannot "
          "order DDL");
    }
  }
  return order;
}

std::string Ident(const std::string& name, char q) {
  return std::string(1, q) + name + std::string(1, q);
}

/// Appends `value` as a single-quoted SQL string literal.
void AppendSqlQuoted(std::string* out, std::string_view value) {
  out->push_back('\'');
  for (char c : value) {
    if (c == '\'') out->push_back('\'');
    out->push_back(c);
  }
  out->push_back('\'');
}

}  // namespace

std::string SqlQuote(std::string_view value) {
  std::string out;
  AppendSqlQuoted(&out, value);
  return out;
}

Result<std::string> GenerateSqlSchema(const DatabaseSchema& schema,
                                      const SqlOptions& opts) {
  MITRA_RETURN_IF_ERROR(schema.Validate());
  MITRA_ASSIGN_OR_RETURN(std::vector<const TableDef*> order,
                         DependencyOrder(schema));
  std::string out;
  const char q = opts.identifier_quote;
  for (const TableDef* t : order) {
    out += "CREATE TABLE " + Ident(t->name, q) + " (\n";
    std::vector<std::string> lines;
    for (const ColumnDef& c : t->columns) {
      std::string line = "  " + Ident(c.name, q) + " TEXT";
      if (c.kind == ColumnKind::kPrimaryKey) line += " PRIMARY KEY";
      if (c.kind == ColumnKind::kForeignKey) line += " NOT NULL";
      lines.push_back(std::move(line));
    }
    for (const ColumnDef& c : t->columns) {
      if (c.kind != ColumnKind::kForeignKey) continue;
      const TableDef* ref = schema.FindTable(c.references);
      const ColumnDef& pk =
          ref->columns[static_cast<size_t>(ref->PrimaryKeyIndex())];
      lines.push_back("  FOREIGN KEY (" + Ident(c.name, q) +
                      ") REFERENCES " + Ident(ref->name, q) + "(" +
                      Ident(pk.name, q) + ")");
    }
    for (size_t i = 0; i < lines.size(); ++i) {
      out += lines[i];
      if (i + 1 < lines.size()) out += ",";
      out += "\n";
    }
    out += ");\n\n";
  }
  return out;
}

Result<std::string> GenerateSqlInserts(const DatabaseSchema& schema,
                                       const Database& db,
                                       const SqlOptions& opts) {
  MITRA_RETURN_IF_ERROR(schema.Validate());
  MITRA_ASSIGN_OR_RETURN(std::vector<const TableDef*> order,
                         DependencyOrder(schema));
  std::string out;
  const char q = opts.identifier_quote;
  if (opts.transaction) out += "BEGIN;\n";
  for (const TableDef* t : order) {
    auto it = db.tables.find(t->name);
    if (it == db.tables.end()) {
      return Status::InvalidArgument("database has no table " + t->name);
    }
    const hdt::Table& table = it->second;
    if (table.NumCols() != t->columns.size()) {
      return Status::InvalidArgument("table " + t->name +
                                     " width mismatch with schema");
    }
    std::string header = "INSERT INTO " + Ident(t->name, q) + " (";
    for (size_t c = 0; c < t->columns.size(); ++c) {
      if (c > 0) header += ", ";
      header += Ident(t->columns[c].name, q);
    }
    header += ") VALUES\n";

    const size_t batch =
        opts.insert_batch_rows == 0 ? 1 : opts.insert_batch_rows;
    for (size_t r = 0; r < table.NumRows(); r += batch) {
      out += header;
      size_t end = std::min(table.NumRows(), r + batch);
      for (size_t i = r; i < end; ++i) {
        out += "  (";
        for (size_t c = 0; c < table.NumCols(); ++c) {
          if (c > 0) out += ", ";
          AppendSqlQuoted(&out, table.cell(i, c));
        }
        out += i + 1 < end ? "),\n" : ");\n";
      }
    }
  }
  if (opts.transaction) out += "COMMIT;\n";
  return out;
}

}  // namespace mitra::db
