#ifndef MITRA_DB_SCHEMA_H_
#define MITRA_DB_SCHEMA_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "hdt/table.h"

/// \file schema.h
/// Relational database schemas for the full-database migration layer
/// (paper §6, "Handling full-fledged databases"): tables with data
/// columns, a generated primary key, and foreign keys referencing other
/// tables' primary keys. Primary/foreign keys do not come from the input
/// dataset — they are generated with the injective function f over tree
/// nodes, exactly as the paper prescribes.

namespace mitra::db {

/// Role of one column in a table.
enum class ColumnKind {
  kData,        ///< Extracted from the document by the synthesized program.
  kPrimaryKey,  ///< Generated: f(n1..nk) over the row's node tuple.
  kForeignKey,  ///< Generated: f over the referenced row's node tuple.
};

struct ColumnDef {
  std::string name;
  ColumnKind kind = ColumnKind::kData;
  /// For kForeignKey: the referenced table (whose primary key it matches).
  std::string references;
};

struct TableDef {
  std::string name;
  std::vector<ColumnDef> columns;

  /// Number of kData columns (the arity of the synthesized program).
  size_t NumDataColumns() const;
  /// Index of the kPrimaryKey column, or -1.
  int PrimaryKeyIndex() const;
};

/// A table of `num_columns` data columns named c0..cK-1: the table that
/// `mitra migrate` and `mitra batch` learn for each example CSV.
TableDef DataOnlyTable(std::string name, size_t num_columns);

/// A database schema: an ordered list of table definitions.
struct DatabaseSchema {
  std::vector<TableDef> tables;

  const TableDef* FindTable(const std::string& name) const;

  /// Structural checks: every table name is one plain path component
  /// (it names output files; the SQL generators, which call this too,
  /// therefore reject such names as well), unique table names, at most
  /// one primary key per table, every foreign key references an existing
  /// table that has a primary key.
  Status Validate() const;

  size_t TotalColumns() const;
};

/// A migrated database instance: one materialized table per TableDef, with
/// columns in definition order (keys included).
struct Database {
  std::map<std::string, hdt::Table> tables;

  size_t TotalRows() const;
};

/// Verifies primary-key uniqueness in `table` at column `pk_col`.
Status CheckPrimaryKeyUnique(const hdt::Table& table, size_t pk_col);

/// Verifies that every value of `fk_col` in `table` occurs as a value of
/// `pk_col` in `referenced`.
Status CheckForeignKeyIntegrity(const hdt::Table& table, size_t fk_col,
                                const hdt::Table& referenced, size_t pk_col);

/// Runs both checks for every key constraint in the schema.
Status CheckDatabaseConstraints(const DatabaseSchema& schema,
                                const Database& db);

}  // namespace mitra::db

#endif  // MITRA_DB_SCHEMA_H_
