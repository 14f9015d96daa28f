#ifndef MITRA_DB_SQL_CODEGEN_H_
#define MITRA_DB_SQL_CODEGEN_H_

#include <string>
#include <string_view>

#include "db/schema.h"

/// \file sql_codegen.h
/// SQL rendering of migrated databases: DDL for the schema (with primary
/// and foreign key constraints) and INSERT statements for the data. This
/// is the last mile of the paper's §6 "full-fledged relational database"
/// story — the output loads directly into SQLite/PostgreSQL.

namespace mitra::db {

struct SqlOptions {
  /// Emit one multi-row INSERT per this many rows (0 = single-row
  /// INSERTs). Multi-row inserts load dramatically faster.
  size_t insert_batch_rows = 500;
  /// Wrap all INSERTs in one transaction.
  bool transaction = true;
  /// Quote style for identifiers: double quotes (standard) by default.
  char identifier_quote = '"';
};

/// Renders CREATE TABLE statements for every table, in dependency order
/// (referenced tables first), including PRIMARY KEY and FOREIGN KEY
/// constraints. Fails if the schema does not validate or the foreign-key
/// graph is cyclic in a way that cannot be ordered (self-references are
/// allowed and emitted inline).
Result<std::string> GenerateSqlSchema(const DatabaseSchema& schema,
                                      const SqlOptions& opts = {});

/// Renders INSERT statements for a migrated database instance, in the
/// same dependency order.
Result<std::string> GenerateSqlInserts(const DatabaseSchema& schema,
                                       const Database& db,
                                       const SqlOptions& opts = {});

/// Escapes a value as a single-quoted SQL string literal.
std::string SqlQuote(std::string_view value);

}  // namespace mitra::db

#endif  // MITRA_DB_SQL_CODEGEN_H_
