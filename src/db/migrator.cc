#include "db/migrator.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <functional>
#include <optional>
#include <set>

#include "common/json_escape.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/column_learner.h"
#include "core/node_extractor_enum.h"
#include "dsl/eval.h"

namespace mitra::db {

namespace {

/// The degradation ladder's rungs: full budgets, reduced caps, and a
/// projection-only program.
constexpr int kLadderRungs = 3;

}  // namespace

std::string ProgramCacheKey(const hdt::Hdt& tree, const hdt::Table& example) {
  KeyHasher h(1469598103934665603ULL, 0x2f72c98b0a5a37b1ULL);
  h.Bytes(dsl::kDslVersion);
  // Tree structure + data. Node ids are preorder ranks, so two
  // textually-equal documents hash identically; the parent/flags framing
  // makes structurally different trees collide only by genuine 128-bit
  // accident (and hits are re-verified anyway).
  h.Int(tree.size());
  for (hdt::NodeId id = 0; id < static_cast<hdt::NodeId>(tree.size()); ++id) {
    h.Bytes(tree.NodeTagName(id));
    h.Int(static_cast<std::uint64_t>(tree.Parent(id) + 1));
    h.Int(static_cast<std::uint64_t>(tree.Pos(id)));
    h.Int((tree.HasData(id) ? 1u : 0u) | (tree.IsAttribute(id) ? 2u : 0u) |
          (tree.IsTextRun(id) ? 4u : 0u));
    if (tree.HasData(id)) h.Bytes(tree.Data(id));
  }
  // Expected table (row order matters for neither synthesis nor
  // verification, but hashing it verbatim is simplest and examples are
  // authored once).
  h.Int(example.NumCols());
  h.Int(example.NumRows());
  for (hdt::RowView row : example.rows()) {
    for (std::string_view cell : row) h.Bytes(cell);
  }
  return h.Hex();
}

char* WriteKey(char* p, int doc_index, std::span<const hdt::NodeId> nodes) {
  // An int32 prints in at most 11 characters.
  p = std::to_chars(p, p + 11, doc_index).ptr;
  for (hdt::NodeId n : nodes) {
    *p++ = '-';
    p = std::to_chars(p, p + 11, n).ptr;
  }
  return p;
}

std::string KeyOf(int doc_index, std::span<const hdt::NodeId> nodes) {
  std::string key(MaxKeySize(nodes.size()), '\0');
  key.resize(static_cast<size_t>(WriteKey(key.data(), doc_index, nodes) -
                                 key.data()));
  return key;
}

Status Migrator::Learn(
    const hdt::Hdt& example_tree,
    const std::map<std::string, hdt::Table>& table_examples,
    const MigratorOptions& opts) {
  return LearnTables(example_tree, table_examples, opts, /*num_rungs=*/1)
      .status();
}

Result<MigrationReport> Migrator::LearnTolerant(
    const hdt::Hdt& example_tree,
    const std::map<std::string, hdt::Table>& table_examples,
    const MigratorOptions& opts) {
  return LearnTables(example_tree, table_examples, opts, kLadderRungs);
}

void Migrator::Install(const std::string& table, LearnedTable learned) {
  learned_.programs[table] = learned.program;
  example_tuples_[table] = std::move(learned.tuples);
  info_.push_back(
      TableSynthesisInfo{table, learned.seconds, std::move(learned.program)});
}

Status Migrator::LearnForeignKeysForTable(const TableDef& t,
                                          const hdt::Hdt& tree,
                                          const MigratorOptions& opts,
                                          common::Governor* gov) {
  {
    const auto& rows = example_tuples_.at(t.name);
    const size_t num_rows = rows.size();
    const size_t k = t.NumDataColumns();

    for (size_t c = 0; c < t.columns.size(); ++c) {
      if (t.columns[c].kind != ColumnKind::kForeignKey) continue;
      const std::string& ref_name = t.columns[c].references;
      const auto& ref_rows = example_tuples_.at(ref_name);
      const size_t m = ref_rows[0].size();

      // Candidates per referenced-tuple component j: a (source column,
      // extractor) whose image on every T row equals component j of some
      // T' row; `compat[r]` records which T' rows match.
      struct FkCandidate {
        int source_col;
        dsl::NodeExtractor extractor;
        std::vector<std::vector<int>> compat;  // per row: T' row indices
      };
      std::vector<std::vector<FkCandidate>> candidates(m);

      core::NodeExtractorEnumOptions ne;
      ne.max_depth = opts.fk_max_depth;
      ne.governor = gov;
      for (size_t tj = 0; tj < k; ++tj) {
        MITRA_GOV_CHECK(gov, "fk/enumerate");
        std::vector<hdt::NodeId> sources;
        sources.reserve(num_rows);
        for (const dsl::NodeTuple& row : rows) {
          sources.push_back(row[tj]);
        }
        auto enumerated = core::EnumerateNodeExtractorsFromSources(
            {&tree}, {sources}, ne);
        if (!enumerated.ok()) return enumerated.status();
        for (const core::EnumeratedExtractor& ee : *enumerated) {
          for (size_t j = 0; j < m; ++j) {
            std::vector<std::vector<int>> compat(num_rows);
            bool ok = true;
            for (size_t r = 0; r < num_rows && ok; ++r) {
              hdt::NodeId target = ee.targets[0][r];
              for (size_t s = 0; s < ref_rows.size(); ++s) {
                if (ref_rows[s][j] == target) {
                  compat[r].push_back(static_cast<int>(s));
                }
              }
              ok = !compat[r].empty();
            }
            if (ok) {
              candidates[j].push_back(FkCandidate{
                  static_cast<int>(tj), ee.extractor, std::move(compat)});
            }
          }
        }
      }

      // DFS over components: the selected extractors must agree on one
      // referenced row per T row.
      ForeignKeyPlan plan;
      std::vector<std::set<int>> live(num_rows);
      for (size_t r = 0; r < num_rows; ++r) {
        for (size_t s = 0; s < ref_rows.size(); ++s) {
          live[r].insert(static_cast<int>(s));
        }
      }
      bool found = false;
      std::function<void(size_t, std::vector<std::set<int>>)> dfs =
          [&](size_t j, std::vector<std::set<int>> state) {
            if (found) return;
            if (j == m) {
              found = true;
              return;
            }
            for (const FkCandidate& cand : candidates[j]) {
              std::vector<std::set<int>> next(num_rows);
              bool ok = true;
              for (size_t r = 0; r < num_rows && ok; ++r) {
                for (int s : cand.compat[r]) {
                  if (state[r].count(s)) next[r].insert(s);
                }
                ok = !next[r].empty();
              }
              if (!ok) continue;
              plan.source_cols.push_back(cand.source_col);
              plan.extractors.push_back(cand.extractor);
              dfs(j + 1, std::move(next));
              if (found) return;
              plan.source_cols.pop_back();
              plan.extractors.pop_back();
            }
          };
      dfs(0, std::move(live));
      if (!found) {
        // A tripped governor outranks the generic failure: the search
        // was truncated, not proven fruitless.
        if (gov != nullptr && gov->token()->cancelled()) {
          return gov->token()->cause();
        }
        return Status::SynthesisFailure(
            "could not learn foreign-key extractors for " + t.name + "." +
            t.columns[c].name + " → " + ref_name);
      }
      learned_.fk_plans[t.name][c] = std::move(plan);
    }
  }
  return Status::OK();
}

Result<hdt::Table> Migrator::BuildTable(
    const TableDef& t, const hdt::Hdt& doc, int doc_index,
    const core::ExecuteOptions& exec_opts) const {
  core::OptimizedExecutor exec(learned_.programs.at(t.name));
  MITRA_ASSIGN_OR_RETURN(core::NodeTable tuples,
                         exec.ExecuteNodes(doc, exec_opts));

  std::vector<std::string> names;
  names.reserve(t.columns.size());
  for (const ColumnDef& c : t.columns) names.push_back(c.name);
  hdt::Table out(std::move(names));

  // Each foreign-key column's plan, its extractors bound to this document
  // once.
  struct ForeignKey {
    const ForeignKeyPlan* plan = nullptr;
    std::vector<dsl::BoundNodeExtractor> extractors;
  };
  std::vector<ForeignKey> fks(t.columns.size());
  // The arena's size: the data cells' bytes exactly, each key at its
  // longest (the spare is returned below).
  size_t bytes = 0;
  for (hdt::NodeId n : tuples.ids) bytes += doc.Data(n).size();
  size_t key_bytes = 0;
  size_t max_ref_arity = 0;
  for (size_t c = 0; c < t.columns.size(); ++c) {
    if (t.columns[c].kind == ColumnKind::kPrimaryKey) {
      key_bytes += MaxKeySize(tuples.arity);
    }
    if (t.columns[c].kind != ColumnKind::kForeignKey) continue;
    fks[c].plan = &learned_.fk_plans.at(t.name).at(c);
    for (const dsl::NodeExtractor& e : fks[c].plan->extractors) {
      fks[c].extractors.push_back(dsl::BindNodeExtractor(doc, e));
    }
    key_bytes += MaxKeySize(fks[c].extractors.size());
    max_ref_arity = std::max(max_ref_arity, fks[c].extractors.size());
  }
  out.Reserve(tuples.size(), bytes + tuples.size() * key_bytes);
  // The referenced row's node tuple, reused by every foreign-key probe.
  std::vector<hdt::NodeId> ref(max_ref_arity);
  for (size_t r = 0; r < tuples.size(); ++r) {
    const std::span<const hdt::NodeId> tuple = tuples[r];
    size_t data_idx = 0;
    for (size_t c = 0; c < t.columns.size(); ++c) {
      switch (t.columns[c].kind) {
        case ColumnKind::kData:
          out.AppendCell(doc.Data(tuple[data_idx++]));
          break;
        case ColumnKind::kPrimaryKey:
          out.AppendCell(MaxKeySize(tuple.size()), [&](char* p) {
            return WriteKey(p, doc_index, tuple);
          });
          break;
        case ColumnKind::kForeignKey: {
          const ForeignKey& fk = fks[c];
          const size_t m = fk.extractors.size();
          for (size_t j = 0; j < m; ++j) {
            ref[j] = dsl::EvalNodeExtractor(
                doc, fk.extractors[j],
                tuple[static_cast<size_t>(fk.plan->source_cols[j])]);
            if (ref[j] == hdt::kInvalidNode) {
              return Status::InvalidArgument(
                  "foreign-key extractor for " + t.name + "." +
                  t.columns[c].name + " failed (⊥) on the full document");
            }
          }
          out.AppendCell(MaxKeySize(m), [&](char* p) {
            return WriteKey(p, doc_index, std::span(ref.data(), m));
          });
          break;
        }
      }
    }
    MITRA_RETURN_IF_ERROR(out.EndRow());
  }
  if (key_bytes > 0) out.ShrinkToFit();
  return out;
}

Status LearnedMigration::Validate() const {
  MITRA_RETURN_IF_ERROR(schema.Validate());
  auto invalid = [](const std::string& what) {
    return Status::InvalidArgument("learned migration: " + what);
  };
  for (const auto& [name, program] : programs) {
    const TableDef* t = schema.FindTable(name);
    if (t == nullptr) return invalid("program for unknown table " + name);
    if (program.columns.size() != t->NumDataColumns()) {
      return invalid("program arity differs from table " + name);
    }
  }
  for (const auto& [name, plans] : fk_plans) {
    if (programs.count(name) == 0) {
      return invalid("foreign-key plans for table " + name +
                     ", which has no program");
    }
    const TableDef& t = *schema.FindTable(name);
    for (const auto& [c, plan] : plans) {
      if (c >= t.columns.size() ||
          t.columns[c].kind != ColumnKind::kForeignKey) {
        return invalid("plan for a column of " + name +
                       " that is not a foreign key");
      }
      const std::string& ref = t.columns[c].references;
      if (programs.count(ref) == 0) {
        return invalid("plan for " + name + "." + t.columns[c].name +
                       " references table " + ref + ", which has no program");
      }
      const size_t arity = schema.FindTable(ref)->NumDataColumns();
      if (plan.extractors.size() != arity || plan.source_cols.size() != arity) {
        return invalid("plan for " + name + "." + t.columns[c].name +
                       " has the wrong length for table " + ref);
      }
      for (int source : plan.source_cols) {
        if (source < 0 || static_cast<size_t>(source) >= t.NumDataColumns()) {
          return invalid("plan for " + name + "." + t.columns[c].name +
                         " reads a source column out of range");
        }
      }
    }
  }
  for (const TableDef& t : schema.tables) {
    if (programs.count(t.name) == 0) continue;
    auto plans = fk_plans.find(t.name);
    for (size_t c = 0; c < t.columns.size(); ++c) {
      if (t.columns[c].kind == ColumnKind::kForeignKey &&
          (plans == fk_plans.end() || plans->second.count(c) == 0)) {
        return invalid("no plan for foreign key " + t.name + "." +
                       t.columns[c].name);
      }
    }
  }
  return Status::OK();
}

/// One table's execution inside ExecuteTables: `table` stays unset when
/// the table has no program or was skipped after a fail-fast failure.
struct Migrator::TableExecution {
  std::optional<Result<hdt::Table>> table;
  double seconds = 0.0;
  common::BudgetUsage usage;
};

Status Migrator::ExecuteTables(const hdt::Hdt& doc, int doc_index,
                               const MigratorOptions& opts, bool fail_fast,
                               std::vector<TableExecution>* runs) const {
  const std::vector<TableDef>& tables = learned_.schema.tables;
  *runs = std::vector<TableExecution>(tables.size());
  // Cross-table memoization (§9): the per-table programs run over the
  // same document and share column extractions through one thread-safe
  // cache, built for this document.
  core::ColumnCache column_cache(doc);
  return common::ParallelForStatus(
      opts.execute.pool, tables.size(), [&](size_t i) -> Status {
        const TableDef& t = tables[i];
        if (learned_.programs.count(t.name) == 0) return Status::OK();
        // Per-table isolation: a fresh governor, a fresh budget.
        common::Governor gov(opts.table_limits);
        core::ExecuteOptions exec_opts = opts.execute;
        exec_opts.governor = &gov;
        exec_opts.column_cache = &column_cache;
        TableExecution& run = (*runs)[i];
        auto start = std::chrono::steady_clock::now();
        run.table.emplace(BuildTable(t, doc, doc_index, exec_opts));
        run.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
        run.usage = gov.Usage();
        if (!fail_fast || run.table->ok()) return Status::OK();
        const Status& st = run.table->status();
        return Status(st.code(), "execution failed for table " + t.name +
                                     ": " + st.message());
      });
}

Result<Database> Migrator::Execute(const hdt::Hdt& doc, int doc_index,
                                   const MigratorOptions& opts) const {
  for (const TableDef& t : learned_.schema.tables) {
    if (learned_.programs.count(t.name) == 0) {
      return Status::InvalidArgument("Learn() was not run (table " + t.name +
                                     ")");
    }
  }
  std::vector<TableExecution> runs;
  MITRA_RETURN_IF_ERROR(
      ExecuteTables(doc, doc_index, opts, /*fail_fast=*/true, &runs));
  Database db;
  for (size_t i = 0; i < runs.size(); ++i) {
    db.tables.emplace(learned_.schema.tables[i].name,
                      std::move(**runs[i].table));
  }
  return db;
}

Database Migrator::ExecuteTolerant(const hdt::Hdt& doc, int doc_index,
                                   MigrationReport* report,
                                   const MigratorOptions& opts) const {
  MigrationReport scratch;
  if (report == nullptr) report = &scratch;
  std::vector<TableExecution> runs;
  (void)ExecuteTables(doc, doc_index, opts, /*fail_fast=*/false, &runs);

  Database db;
  for (size_t i = 0; i < runs.size(); ++i) {
    const std::string& name = learned_.schema.tables[i].name;
    TableExecution& run = runs[i];
    TableReport* tr = report->Find(name);
    if (tr == nullptr) {
      // After a strict Learn() there is no ladder record; a table with a
      // program counts as rung-0 OK until execution says otherwise.
      tr = &report->tables.emplace_back();
      tr->table = name;
      if (run.table) {
        tr->outcome = TableOutcome::kOk;
        tr->rung = 0;
      } else {
        tr->status = Status::InvalidArgument("Learn() produced no program");
      }
    }
    if (!run.table) continue;
    tr->execute_seconds += run.seconds;
    tr->usage.Accumulate(run.usage);
    if (!run.table->ok()) {
      tr->outcome = TableOutcome::kFailed;
      tr->status = run.table->status();
      tr->retry_trail.push_back("execute: " + tr->status.ToString());
      continue;
    }
    tr->rows_emitted += (*run.table)->NumRows();
    db.tables.emplace(name, std::move(**run.table));
  }
  return db;
}

// ---------------------------------------------------------------------------
// Fault-tolerant migration: per-table isolation + degradation ladder.
// ---------------------------------------------------------------------------

const char* TableOutcomeName(TableOutcome outcome) {
  switch (outcome) {
    case TableOutcome::kOk:
      return "ok";
    case TableOutcome::kDegraded:
      return "degraded";
    case TableOutcome::kFallback:
      return "fallback";
    case TableOutcome::kFailed:
      return "failed";
    case TableOutcome::kSkipped:
      return "skipped";
  }
  return "unknown";
}

bool MigrationReport::complete() const {
  for (const TableReport& t : tables) {
    if (t.outcome != TableOutcome::kOk) return false;
  }
  return true;
}

bool TableIsLive(const TableReport* report) {
  return report != nullptr && report->outcome != TableOutcome::kFailed &&
         report->outcome != TableOutcome::kSkipped;
}

size_t MigrationReport::num_failed() const {
  return static_cast<size_t>(
      std::count_if(tables.begin(), tables.end(),
                    [](const TableReport& t) { return !TableIsLive(&t); }));
}

TableReport* MigrationReport::Find(const std::string& table) {
  for (TableReport& t : tables) {
    if (t.table == table) return &t;
  }
  return nullptr;
}

const TableReport* MigrationReport::Find(const std::string& table) const {
  for (const TableReport& t : tables) {
    if (t.table == table) return &t;
  }
  return nullptr;
}

namespace {

std::string JsonDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

/// The ladder's rung-1 option set: the same search, under per-phase caps
/// shrunk far enough that a table which blew its full budget usually
/// terminates (with a simpler program or a clean failure) instead of
/// timing out again.
core::SynthesisOptions ReducedSynthesisOptions(core::SynthesisOptions s) {
  s.max_table_extractors = std::max<size_t>(1, s.max_table_extractors / 4);
  s.max_consistent_programs = 1;
  s.column.dfa.max_states =
      std::max<size_t>(1'000, s.column.dfa.max_states / 4);
  s.column.enumerate.max_programs =
      std::max<size_t>(4, s.column.enumerate.max_programs / 2);
  s.column.enumerate.max_expansions =
      std::max<uint64_t>(10'000, s.column.enumerate.max_expansions / 4);
  s.predicate.universe.max_atoms =
      std::max<size_t>(256, s.predicate.universe.max_atoms / 8);
  s.predicate.universe.max_extractors_per_column =
      std::max<size_t>(8, s.predicate.universe.max_extractors_per_column / 2);
  s.predicate.universe.max_constants =
      std::max<size_t>(8, s.predicate.universe.max_constants / 2);
  s.predicate.eval.max_intermediate_tuples = std::max<uint64_t>(
      100'000, s.predicate.eval.max_intermediate_tuples / 10);
  return s;
}

}  // namespace

std::string MigrationReport::ToJson() const {
  std::string out = "{\"complete\":";
  out += complete() ? "true" : "false";
  out += ",\"num_failed\":" + std::to_string(num_failed());
  out += ",\"tables\":[";
  for (size_t i = 0; i < tables.size(); ++i) {
    const TableReport& t = tables[i];
    if (i > 0) out += ',';
    out += "{\"table\":\"" + common::EscapeJsonString(t.table) + "\"";
    out += ",\"outcome\":\"";
    out += TableOutcomeName(t.outcome);
    out += "\",\"status_code\":\"";
    out += StatusCodeToString(t.status.code());
    out += "\",\"status\":\"" + common::EscapeJsonString(t.status.message()) +
           "\"";
    out += ",\"rung\":" + std::to_string(t.rung);
    out += ",\"cache_hit\":";
    out += t.cache_hit ? "true" : "false";
    out += ",\"learn_seconds\":" + JsonDouble(t.learn_seconds);
    out += ",\"execute_seconds\":" + JsonDouble(t.execute_seconds);
    out += ",\"rows_emitted\":" + std::to_string(t.rows_emitted);
    out += ",\"usage\":{\"states\":" + std::to_string(t.usage.states) +
           ",\"rows\":" + std::to_string(t.usage.rows) +
           ",\"bytes\":" + std::to_string(t.usage.bytes) +
           ",\"checks\":" + std::to_string(t.usage.checks) + "}";
    out += ",\"retry_trail\":[";
    for (size_t r = 0; r < t.retry_trail.size(); ++r) {
      if (r > 0) out += ',';
      out += "\"" + common::EscapeJsonString(t.retry_trail[r]) + "\"";
    }
    out += "]}";
  }
  out += "]";
  if (!metrics.empty()) {
    out += ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, value] : metrics) {
      if (!first) out += ',';
      first = false;
      out += "\"" + common::EscapeJsonString(name) +
             "\":" + std::to_string(value);
    }
    out += "}";
  }
  out += "}";
  return out;
}

std::optional<Migrator::LearnedTable> Migrator::LookupCachedProgram(
    const TableDef& t, const hdt::Hdt& tree, const hdt::Table& example,
    const MigratorOptions& opts, Status* why) const {
  *why = Status::OK();
  if (opts.program_cache == nullptr) return std::nullopt;
  std::optional<dsl::Program> program =
      opts.program_cache->Lookup(ProgramCacheKey(tree, example));
  if (!program.has_value()) return std::nullopt;
  // Re-verify against the example under a bounded governor with the
  // synthesizer's own row-set check: a poisoned or colliding entry must
  // read as a miss, never emit wrong tables, and never run unbudgeted.
  common::ResourceLimits limits = opts.table_limits;
  if (!limits.has_deadline()) {
    limits.time_limit_seconds = opts.synthesis.time_limit_seconds;
  }
  common::Governor gov(limits);
  auto start = std::chrono::steady_clock::now();
  LearnedTable learned;
  Status st = [&]() -> Status {
    if (program->columns.size() != example.NumCols()) {
      return Status::InvalidArgument(
          "cached program has " + std::to_string(program->columns.size()) +
          " columns, example has " + std::to_string(example.NumCols()));
    }
    dsl::EvalOptions ev = opts.synthesis.predicate.eval;
    ev.governor = &gov;
    MITRA_ASSIGN_OR_RETURN(
        learned.tuples,
        core::MatchRowSet(tree, *program, core::RowSet(example), ev));
    if (learned.tuples.empty()) {
      return Status::SynthesisFailure("cached program for table " + t.name +
                                      " yields no example rows");
    }
    learned.program = std::move(*program);
    return Status::OK();
  }();
  if (!st.ok()) {
    *why = st;
    return std::nullopt;
  }
  learned.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return learned;
}

/// One table's learning state between LearnTables' passes. The cache
/// lookup or RunLadder fills it (RunLadder possibly on a pool thread); the
/// calling thread then applies it to the migrator and the report.
struct Migrator::TableAttempt {
  TableReport report;
  std::optional<LearnedTable> learned;
  /// True when rung 0 synthesized `learned`: only full-budget programs go
  /// into the program cache.
  bool cacheable = false;
  /// The last rung's error when no rung learned the table.
  Status status;
};

void Migrator::RunLadder(const TableDef& t, const hdt::Hdt& tree,
                         const hdt::Table& example,
                         const MigratorOptions& opts, int num_rungs,
                         TableAttempt* out) const {
  const core::SynthesisOptions reduced =
      ReducedSynthesisOptions(opts.synthesis);

  // Rungs 0 and 1: synthesis, then the example node tuples under the same
  // budgets (they feed foreign-key learning and can be the expensive part
  // for a near-unconstrained program). Only rung 0 keeps its result for
  // the cache: a degraded program must never shadow the full-budget result
  // a later, better-budgeted run would synthesize (the key excludes
  // budgets).
  auto synthesize = [&](const core::SynthesisOptions& sopts,
                        common::Governor* gov) -> Result<LearnedTable> {
    core::SynthesisOptions governed = sopts;
    governed.governor = gov;
    MITRA_ASSIGN_OR_RETURN(core::SynthesisResult result,
                           core::LearnTransformation(tree, example, governed));
    dsl::EvalOptions ev = sopts.predicate.eval;
    ev.governor = gov;
    LearnedTable learned;
    MITRA_ASSIGN_OR_RETURN(
        learned.tuples, dsl::EvalProgramNodeTuples(tree, result.program, ev));
    if (learned.tuples.empty()) {
      return Status::SynthesisFailure("program for table " + t.name +
                                      " yields no example rows");
    }
    learned.program = std::move(result.program);
    return learned;
  };

  // Rung 2: projection-only fallback — the cheapest extractor per column
  // and φ = true. The emitted rows are a superset of the precise table
  // (each expected value is covered per column by Theorem 1, so every
  // expected combination appears in the cross product); verified below.
  auto project = [&](common::Governor* gov) -> Result<LearnedTable> {
    core::ColumnLearnOptions copts = reduced.column;
    copts.dfa.governor = gov;
    copts.enumerate.governor = gov;
    copts.enumerate.max_programs = 1;  // only the cheapest is needed
    core::Examples examples{core::Example{&tree, &example}};
    core::ColSymbolPool pool;
    LearnedTable learned;
    for (size_t j = 0; j < example.NumCols(); ++j) {
      MITRA_ASSIGN_OR_RETURN(
          std::vector<dsl::ColumnExtractor> cands,
          core::LearnColumnExtractors(examples, static_cast<int>(j), &pool,
                                      copts));
      if (cands.empty()) {
        return Status::SynthesisFailure("no column extractor for column " +
                                        std::to_string(j) + " of table " +
                                        t.name);
      }
      learned.program.columns.push_back(cands[0]);
    }
    learned.program.formula = dsl::Dnf::True();
    dsl::EvalOptions ev = reduced.predicate.eval;
    ev.governor = gov;
    MITRA_ASSIGN_OR_RETURN(
        learned.tuples, dsl::EvalProgramNodeTuples(tree, learned.program, ev));
    // Coverage check: every expected data row must appear among the
    // projection-only rows (superset semantics, never a wrong subset).
    std::set<hdt::Row> produced;
    for (const dsl::NodeTuple& tuple : learned.tuples) {
      produced.insert(dsl::ProjectData(tree, tuple));
    }
    for (hdt::RowView want : example.rows()) {
      if (!produced.contains(want.ToRow())) {
        return Status::SynthesisFailure(
            "projection-only fallback for table " + t.name +
            " does not cover the example rows");
      }
    }
    return learned;
  };

  constexpr TableOutcome kRungOutcome[kLadderRungs] = {
      TableOutcome::kOk, TableOutcome::kDegraded, TableOutcome::kFallback};
  for (int rung = 0; rung < num_rungs; ++rung) {
    const core::SynthesisOptions& sopts = rung == 0 ? opts.synthesis : reduced;
    // One attempt = one fresh governor: a failed rung must not eat into the
    // next rung's budget, and a poisoned table must not cancel its
    // siblings.
    common::ResourceLimits limits = opts.table_limits;
    if (!limits.has_deadline()) {
      limits.time_limit_seconds = sopts.time_limit_seconds;
    }
    common::Governor gov(limits);
    auto start = std::chrono::steady_clock::now();
    Result<LearnedTable> learned =
        rung < 2 ? synthesize(sopts, &gov) : project(&gov);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    out->report.learn_seconds += seconds;
    out->report.usage.Accumulate(gov.Usage());
    if (learned.ok()) {
      learned->seconds = seconds;
      out->learned = std::move(*learned);
      out->cacheable = rung == 0;
      out->report.outcome = kRungOutcome[rung];
      out->report.rung = rung;
      out->status = Status::OK();
      return;
    }
    out->status = learned.status();
    out->report.retry_trail.push_back("rung " + std::to_string(rung) + ": " +
                                      out->status.ToString());
  }
}

Result<MigrationReport> Migrator::LearnTables(
    const hdt::Hdt& tree,
    const std::map<std::string, hdt::Table>& table_examples,
    const MigratorOptions& opts, int num_rungs) {
  const DatabaseSchema& schema = learned_.schema;
  MITRA_RETURN_IF_ERROR(schema.Validate());
  learned_.programs.clear();
  learned_.fk_plans.clear();
  example_tuples_.clear();
  info_.clear();
  // A full-budget-only run fails fast with the error a sequential loop
  // would return: the first failing table's in schema order. A ladder run
  // records each table's failure in the report instead.
  const bool fail_fast = num_rungs == 1;

  // Pass 1, calling thread, schema order: the example checks up to the
  // first malformed example, then the cache lookups.
  std::vector<const hdt::Table*> examples;
  Status malformed;
  for (const TableDef& t : schema.tables) {
    auto it = table_examples.find(t.name);
    if (it == table_examples.end()) {
      malformed = Status::InvalidArgument("no example for table " + t.name);
      break;
    }
    if (it->second.NumCols() != t.NumDataColumns()) {
      malformed = Status::InvalidArgument(
          "example for table " + t.name + " has " +
          std::to_string(it->second.NumCols()) + " columns, schema has " +
          std::to_string(t.NumDataColumns()) + " data columns");
      break;
    }
    examples.push_back(&it->second);
  }
  // A malformed example is a caller bug and fails the whole call. Only a
  // fail-fast run still learns the tables before it: one of their failures
  // would come first in schema order.
  if (!malformed.ok() && !fail_fast) return malformed;

  std::vector<TableAttempt> attempts(examples.size());
  std::vector<size_t> misses;
  for (size_t i = 0; i < examples.size(); ++i) {
    TableAttempt& a = attempts[i];
    a.report.table = schema.tables[i].name;
    // A verified hit is a rung-0 result (only full-budget programs are
    // ever stored) with no synthesis run at all.
    Status why;
    auto start = std::chrono::steady_clock::now();
    a.learned =
        LookupCachedProgram(schema.tables[i], tree, *examples[i], opts, &why);
    a.report.learn_seconds += std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();
    if (a.learned) {
      a.report.outcome = TableOutcome::kOk;
      a.report.rung = 0;
      a.report.cache_hit = true;
      continue;
    }
    if (!why.ok()) a.report.retry_trail.push_back("cache: " + why.ToString());
    misses.push_back(i);
  }

  // Pass 2: each miss's ladder, up to num_threads tables at a time, each
  // with its own synthesis pool. Past the first failure of a fail-fast
  // run, unclaimed misses are skipped: they cannot change its error.
  const unsigned threads =
      opts.synthesis.num_threads == 0
          ? common::ThreadPool::HardwareThreads()
          : static_cast<unsigned>(std::max(1, opts.synthesis.num_threads));
  std::optional<common::ThreadPool> pool;
  if (threads > 1 && misses.size() > 1) {
    pool.emplace(static_cast<unsigned>(
        std::min<size_t>(threads, misses.size())));
  }
  (void)common::ParallelForStatus(
      pool ? &*pool : nullptr, misses.size(), [&](size_t m) -> Status {
        const size_t i = misses[m];
        RunLadder(schema.tables[i], tree, *examples[i], opts, num_rungs,
                  &attempts[i]);
        return fail_fast ? attempts[i].status : Status::OK();
      });

  // Pass 3, calling thread, schema order: installs and rung-0 cache stores
  // (the only file-system mutations).
  MigrationReport report;
  report.tables.reserve(attempts.size());
  for (size_t i = 0; i < attempts.size(); ++i) {
    TableAttempt& a = attempts[i];
    if (!a.learned) {
      if (fail_fast) {
        return Status(a.status.code(), "synthesis failed for table " +
                                           a.report.table + ": " +
                                           a.status.message());
      }
      a.report.outcome = TableOutcome::kFailed;
      a.report.status = a.status;
    } else {
      if (a.cacheable && opts.program_cache != nullptr) {
        // Best effort: a full cache disk or injected I/O fault must not
        // fail a migration that already has its program.
        (void)opts.program_cache->Store(ProgramCacheKey(tree, *examples[i]),
                                        a.learned->program);
      }
      Install(a.report.table, std::move(*a.learned));
    }
    report.tables.push_back(std::move(a.report));
  }
  MITRA_RETURN_IF_ERROR(malformed);

  // Foreign keys, calling thread, with cascade skipping: a table whose FK
  // references an unavailable table is kSkipped, and that skip can cascade
  // further. A fail-fast run gets here with every table live and returns
  // the first failure in schema order.
  std::set<std::string> fk_done;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const TableDef& t : schema.tables) {
      TableReport* tr = report.Find(t.name);
      if (!TableIsLive(tr)) continue;
      bool has_fk = false;
      for (size_t c = 0; c < t.columns.size(); ++c) {
        if (t.columns[c].kind != ColumnKind::kForeignKey) continue;
        has_fk = true;
        const std::string& ref = t.columns[c].references;
        if (!TableIsLive(report.Find(ref))) {
          tr->outcome = TableOutcome::kSkipped;
          tr->status = Status::SynthesisFailure(
              "skipped: referenced table " + ref + " is unavailable");
          tr->retry_trail.push_back("fk: referenced table " + ref +
                                    " unavailable");
          learned_.programs.erase(t.name);
          learned_.fk_plans.erase(t.name);
          changed = true;
          break;
        }
      }
      if (!TableIsLive(tr) || !has_fk || fk_done.count(t.name) != 0) continue;
      fk_done.insert(t.name);
      common::Governor gov(opts.table_limits);
      Status st = LearnForeignKeysForTable(t, tree, opts, &gov);
      tr->usage.Accumulate(gov.Usage());
      if (!st.ok()) {
        if (fail_fast) return st;
        tr->outcome = TableOutcome::kFailed;
        tr->status = st;
        tr->retry_trail.push_back("fk: " + st.ToString());
        learned_.programs.erase(t.name);
        learned_.fk_plans.erase(t.name);
        changed = true;
      }
    }
  }
  return report;
}

}  // namespace mitra::db
