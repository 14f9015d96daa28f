#include "db/migrator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <set>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/column_learner.h"
#include "core/node_extractor_enum.h"
#include "dsl/eval.h"

namespace mitra::db {

namespace {

/// Streams length-framed byte fields through two independently-seeded FNV
/// states; the concatenated hex digests form the 128-bit cache key.
class KeyHasher {
 public:
  void Bytes(std::string_view s) {
    Int(s.size());
    h1_ = Fnv1a64(s.data(), s.size(), h1_);
    h2_ = Fnv1a64(s.data(), s.size(), h2_);
  }
  void Int(std::uint64_t v) {
    char buf[8];
    std::memcpy(buf, &v, sizeof(buf));
    h1_ = Fnv1a64(buf, sizeof(buf), h1_);
    h2_ = Fnv1a64(buf, sizeof(buf), h2_);
  }
  std::string Hex() const {
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(h1_),
                  static_cast<unsigned long long>(h2_));
    return buf;
  }

 private:
  std::uint64_t h1_ = 1469598103934665603ULL;
  std::uint64_t h2_ = 0x2f72c98b0a5a37b1ULL;
};

}  // namespace

std::string ProgramCacheKey(const hdt::Hdt& tree, const hdt::Table& example) {
  KeyHasher h;
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
  for (const hdt::Row& row : example.rows()) {
    for (const std::string& cell : row) h.Bytes(cell);
  }
  return h.Hex();
}

std::string KeyOf(int doc_index, const dsl::NodeTuple& nodes) {
  std::string key = std::to_string(doc_index);
  for (hdt::NodeId n : nodes) {
    key += '-';
    key += std::to_string(n);
  }
  return key;
}

Status Migrator::Learn(
    const hdt::Hdt& example_tree,
    const std::map<std::string, hdt::Table>& table_examples,
    const MigratorOptions& opts) {
  MITRA_RETURN_IF_ERROR(schema_.Validate());
  programs_.clear();
  fk_plans_.clear();
  example_tuples_.clear();
  info_.clear();

  // Three passes reproduce the sequential loop's tables, error and cache
  // writes. The calling thread checks each example and consults the cache
  // in schema order, up to the first malformed example; the misses are
  // synthesized concurrently; then the calling thread installs and stores
  // the results in schema order, up to the first failing table.
  struct Slot {
    const TableDef* table = nullptr;
    const hdt::Table* example = nullptr;
    bool cache_hit = false;
    std::optional<LearnedTable> learned;
    core::SynthesisResult synthesized;  ///< a miss's result, to store
    Status status;
  };
  std::vector<Slot> slots;
  slots.reserve(schema_.tables.size());
  std::vector<size_t> misses;
  Status malformed;
  for (const TableDef& t : schema_.tables) {
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
    Slot& slot = slots.emplace_back();
    slot.table = &t;
    slot.example = &it->second;
    Status cache_why;  // strict path has no retry trail; miss reasons drop
    slot.learned =
        LookupCachedProgram(t, example_tree, it->second, opts, &cache_why);
    slot.cache_hit = slot.learned.has_value();
    if (!slot.cache_hit) misses.push_back(slots.size() - 1);
  }

  // At most num_threads tables at a time, each with its own synthesis
  // pool. Past the first failing miss, unclaimed misses are skipped: the
  // sequential loop would never have reached them.
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
        Slot& slot = slots[misses[m]];
        const std::string& name = slot.table->name;
        auto start = std::chrono::steady_clock::now();
        auto result = core::LearnTransformation(example_tree, *slot.example,
                                                opts.synthesis);
        if (!result.ok()) {
          slot.status = Status(result.status().code(),
                               "synthesis failed for table " + name + ": " +
                                   result.status().message());
          return slot.status;
        }
        LearnedTable learned;
        learned.seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
        learned.program = result->program;
        auto tuples =
            dsl::EvalProgramNodeTuples(example_tree, result->program);
        if (!tuples.ok()) {
          slot.status = tuples.status();
        } else if (tuples->empty()) {
          slot.status = Status::SynthesisFailure(
              "program for table " + name + " yields no example rows");
        } else {
          learned.tuples = std::move(*tuples);
          slot.learned = std::move(learned);
          slot.synthesized = std::move(*result);
        }
        return slot.status;
      });

  for (Slot& slot : slots) {
    MITRA_RETURN_IF_ERROR(slot.status);
    Install(slot.table->name, std::move(*slot.learned));
    if (!slot.cache_hit) {
      StoreCachedProgram(example_tree, *slot.example, opts, slot.synthesized);
    }
  }
  MITRA_RETURN_IF_ERROR(malformed);
  return LearnForeignKeys(example_tree, opts);
}

void Migrator::Install(const std::string& table, LearnedTable learned) {
  programs_[table] = learned.program;
  example_tuples_[table] = std::move(learned.tuples);
  info_.push_back(
      TableSynthesisInfo{table, learned.seconds, std::move(learned.program)});
}

Status Migrator::LearnForeignKeys(const hdt::Hdt& tree,
                                  const MigratorOptions& opts) {
  for (const TableDef& t : schema_.tables) {
    MITRA_RETURN_IF_ERROR(
        LearnForeignKeysForTable(t, tree, opts, /*gov=*/nullptr));
  }
  return Status::OK();
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
      fk_plans_[t.name][c] = std::move(plan);
    }
  }
  return Status::OK();
}

Result<hdt::Table> Migrator::BuildTable(
    const TableDef& t, const hdt::Hdt& doc, int doc_index,
    const core::ExecuteOptions& exec_opts) const {
  core::OptimizedExecutor exec(programs_.at(t.name));
  MITRA_ASSIGN_OR_RETURN(std::vector<dsl::NodeTuple> tuples,
                         exec.ExecuteNodes(doc, exec_opts));

  std::vector<std::string> names;
  names.reserve(t.columns.size());
  for (const ColumnDef& c : t.columns) names.push_back(c.name);
  hdt::Table out(names);

  auto fk_it = fk_plans_.find(t.name);
  for (const dsl::NodeTuple& tuple : tuples) {
    hdt::Row row;
    row.reserve(t.columns.size());
    size_t data_idx = 0;
    for (size_t c = 0; c < t.columns.size(); ++c) {
      switch (t.columns[c].kind) {
        case ColumnKind::kData:
          row.emplace_back(doc.Data(tuple[data_idx++]));
          break;
        case ColumnKind::kPrimaryKey:
          row.push_back(KeyOf(doc_index, tuple));
          break;
        case ColumnKind::kForeignKey: {
          const ForeignKeyPlan& plan = fk_it->second.at(c);
          dsl::NodeTuple ref_tuple;
          ref_tuple.reserve(plan.extractors.size());
          for (size_t j = 0; j < plan.extractors.size(); ++j) {
            hdt::NodeId n = dsl::EvalNodeExtractor(
                doc, plan.extractors[j],
                tuple[static_cast<size_t>(plan.source_cols[j])]);
            if (n == hdt::kInvalidNode) {
              return Status::InvalidArgument(
                  "foreign-key extractor for " + t.name + "." +
                  t.columns[c].name + " failed (⊥) on the full document");
            }
            ref_tuple.push_back(n);
          }
          row.push_back(KeyOf(doc_index, ref_tuple));
          break;
        }
      }
    }
    MITRA_RETURN_IF_ERROR(out.AppendRow(std::move(row)));
  }
  return out;
}

Status Migrator::InstallLearnedProgram(const std::string& table,
                                       dsl::Program program) {
  const TableDef* def = nullptr;
  for (const TableDef& t : schema_.tables) {
    if (t.name == table) {
      def = &t;
      break;
    }
  }
  if (def == nullptr) {
    return Status::InvalidArgument("InstallLearnedProgram: table '" + table +
                                   "' not in schema");
  }
  for (const ColumnDef& c : def->columns) {
    if (c.kind == ColumnKind::kForeignKey) {
      return Status::InvalidArgument(
          "InstallLearnedProgram: table '" + table +
          "' has foreign-key columns; FK plans cannot be installed");
    }
  }
  programs_[table] = std::move(program);
  return Status::OK();
}

Result<Database> Migrator::Execute(const hdt::Hdt& doc, int doc_index,
                                   const MigratorOptions& opts) const {
  Database db;
  // Cross-table memoization (§9): the per-table programs run over the
  // same document and share column extractions through one cache.
  core::ColumnCache column_cache;
  core::ExecuteOptions exec_opts = opts.execute;
  if (exec_opts.column_cache == nullptr) {
    exec_opts.column_cache = &column_cache;
  }
  for (const TableDef& t : schema_.tables) {
    if (programs_.find(t.name) == programs_.end()) {
      return Status::InvalidArgument("Learn() was not run (table " + t.name +
                                     ")");
    }
  }

  // Per-table migration: executes the table's program and materializes
  // rows with generated keys. Independent across tables (the shared
  // column cache is thread-safe), so tables run on the pool when one is
  // supplied, merged back in schema order.
  const size_t num_tables = schema_.tables.size();
  common::ThreadPool* pool = exec_opts.pool;
  if (pool != nullptr && pool->size() > 1 && num_tables > 1) {
    std::vector<std::optional<Result<hdt::Table>>> results(num_tables);
    common::CancelToken* token = exec_opts.governor != nullptr
                                     ? exec_opts.governor->token()
                                     : nullptr;
    MITRA_RETURN_IF_ERROR(common::ParallelForStatus(
        pool, num_tables,
        [&](size_t i) -> Status {
          results[i].emplace(
              BuildTable(schema_.tables[i], doc, doc_index, exec_opts));
          return Status::OK();
        },
        token));
    for (size_t i = 0; i < num_tables; ++i) {
      if (!results[i].has_value()) {
        // Skipped by cancellation: surface the cause.
        return exec_opts.governor->token()->cause();
      }
      if (!(*results[i]).ok()) return results[i]->status();
      db.tables.emplace(schema_.tables[i].name, std::move(**results[i]));
    }
  } else {
    for (const TableDef& t : schema_.tables) {
      MITRA_ASSIGN_OR_RETURN(hdt::Table out,
                             BuildTable(t, doc, doc_index, exec_opts));
      db.tables.emplace(t.name, std::move(out));
    }
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

size_t MigrationReport::num_failed() const {
  size_t n = 0;
  for (const TableReport& t : tables) {
    if (t.outcome == TableOutcome::kFailed ||
        t.outcome == TableOutcome::kSkipped) {
      ++n;
    }
  }
  return n;
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

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

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
    out += "{\"table\":\"" + JsonEscape(t.table) + "\"";
    out += ",\"outcome\":\"";
    out += TableOutcomeName(t.outcome);
    out += "\",\"status_code\":\"";
    out += StatusCodeToString(t.status.code());
    out += "\",\"status\":\"" + JsonEscape(t.status.message()) + "\"";
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
      out += "\"" + JsonEscape(t.retry_trail[r]) + "\"";
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
      out += "\"" + JsonEscape(name) + "\":" + std::to_string(value);
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
  std::optional<CachedProgram> entry =
      opts.program_cache->Lookup(ProgramCacheKey(tree, example));
  if (!entry.has_value()) return std::nullopt;
  // Re-verify against the example under a bounded governor, mirroring the
  // synthesizer's own consistency check (VerifyProgram): a poisoned or
  // colliding entry must read as a miss, never emit wrong tables, and
  // never run unbudgeted.
  common::ResourceLimits limits = opts.table_limits;
  if (!limits.has_deadline()) {
    limits.time_limit_seconds = opts.synthesis.time_limit_seconds;
  }
  common::Governor gov(limits);
  auto start = std::chrono::steady_clock::now();
  LearnedTable learned;
  Status st = [&]() -> Status {
    if (entry->program.columns.size() != example.NumCols()) {
      return Status::InvalidArgument(
          "cached program has " + std::to_string(entry->program.columns.size()) +
          " columns, example has " + std::to_string(example.NumCols()));
    }
    dsl::EvalOptions ev = opts.synthesis.predicate.eval;
    ev.governor = &gov;
    MITRA_ASSIGN_OR_RETURN(std::vector<dsl::NodeTuple> tuples,
                           dsl::EvalProgramNodeTuples(tree, entry->program, ev));
    if (tuples.empty()) {
      return Status::SynthesisFailure("cached program for table " + t.name +
                                      " yields no example rows");
    }
    hdt::Table got(example.NumCols());
    for (const dsl::NodeTuple& tuple : tuples) {
      MITRA_RETURN_IF_ERROR(got.AppendRow(dsl::ProjectData(tree, tuple)));
    }
    got.Dedup();
    got.SortRows();
    hdt::Table want = example;
    want.Dedup();
    want.SortRows();
    if (got.rows() != want.rows()) {
      return Status::SynthesisFailure(
          "cached program for table " + t.name +
          " is inconsistent with the example");
    }
    learned.program = std::move(entry->program);
    learned.tuples = std::move(tuples);
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

void Migrator::StoreCachedProgram(const hdt::Hdt& tree,
                                  const hdt::Table& example,
                                  const MigratorOptions& opts,
                                  const core::SynthesisResult& result) {
  if (opts.program_cache == nullptr) return;
  CachedProgram entry;
  entry.program = result.program;
  entry.synthesis_seconds = result.stats.seconds;
  entry.table_extractors_tried = result.stats.table_extractors_tried;
  entry.table_extractors_consistent = result.stats.table_extractors_consistent;
  // Best effort: a full cache disk or injected I/O fault must not fail a
  // migration that already has its program.
  (void)opts.program_cache->Store(ProgramCacheKey(tree, example), entry);
}

Status Migrator::LearnTableLadder(const TableDef& t, const hdt::Hdt& tree,
                                  const hdt::Table& example,
                                  const MigratorOptions& opts,
                                  TableReport* report) {
  // Cache first: a verified hit is a rung-0 result (only full-budget
  // programs are ever stored) with no synthesis run at all.
  {
    Status cache_why;
    auto cache_start = std::chrono::steady_clock::now();
    std::optional<LearnedTable> hit =
        LookupCachedProgram(t, tree, example, opts, &cache_why);
    if (hit || !cache_why.ok()) {
      report->learn_seconds += std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() -
                                   cache_start)
                                   .count();
    }
    if (hit) {
      Install(t.name, std::move(*hit));
      report->outcome = TableOutcome::kOk;
      report->rung = 0;
      report->cache_hit = true;
      return Status::OK();
    }
    if (!cache_why.ok()) {
      report->retry_trail.push_back("cache: " + cache_why.ToString());
    }
  }

  // One attempt = one fresh governor: rung failures must not eat into the
  // next rung's budget, and a poisoned table must not cancel its siblings.
  auto rung_limits = [&](double fallback_deadline) {
    common::ResourceLimits limits = opts.table_limits;
    if (!limits.has_deadline()) limits.time_limit_seconds = fallback_deadline;
    return limits;
  };

  auto attempt = [&](const core::SynthesisOptions& sopts,
                     bool store_in_cache) -> Status {
    common::Governor gov(rung_limits(sopts.time_limit_seconds));
    core::SynthesisOptions governed = sopts;
    governed.governor = &gov;
    auto start = std::chrono::steady_clock::now();
    auto result = core::LearnTransformation(tree, example, governed);
    Status st = result.ok() ? Status::OK() : result.status();
    if (st.ok()) {
      // Materialize the example node tuples under the same budgets (they
      // feed foreign-key learning and can be the expensive part for a
      // near-unconstrained program).
      dsl::EvalOptions ev = sopts.predicate.eval;
      ev.governor = &gov;
      auto tuples = dsl::EvalProgramNodeTuples(tree, result->program, ev);
      if (!tuples.ok()) {
        st = tuples.status();
      } else if (tuples->empty()) {
        st = Status::SynthesisFailure("program for table " + t.name +
                                      " yields no example rows");
      } else {
        Install(t.name,
                LearnedTable{result->program, std::move(*tuples),
                             std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count()});
        if (store_in_cache) StoreCachedProgram(tree, example, opts, *result);
      }
    }
    report->learn_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    report->usage.Accumulate(gov.Usage());
    return st;
  };

  // Rung 0: full budgets. Only this rung stores into the cache — a
  // degraded program must never shadow the full-budget result a later,
  // better-budgeted run would synthesize (the key excludes budgets).
  Status st = attempt(opts.synthesis, /*store_in_cache=*/true);
  if (st.ok()) {
    report->outcome = TableOutcome::kOk;
    report->rung = 0;
    return Status::OK();
  }
  report->retry_trail.push_back("rung 0: " + st.ToString());

  // Rung 1: reduced caps.
  core::SynthesisOptions reduced = ReducedSynthesisOptions(opts.synthesis);
  st = attempt(reduced, /*store_in_cache=*/false);
  if (st.ok()) {
    report->outcome = TableOutcome::kDegraded;
    report->rung = 1;
    return Status::OK();
  }
  report->retry_trail.push_back("rung 1: " + st.ToString());

  // Rung 2: projection-only fallback — the cheapest extractor per column
  // and φ = true. The emitted rows are a superset of the precise table
  // (each expected value is covered per column by Theorem 1, so every
  // expected combination appears in the cross product); verified below.
  st = [&]() -> Status {
    common::Governor gov(rung_limits(reduced.time_limit_seconds));
    auto start = std::chrono::steady_clock::now();
    core::ColumnLearnOptions copts = reduced.column;
    copts.dfa.governor = &gov;
    copts.enumerate.governor = &gov;
    copts.enumerate.max_programs = 1;  // only the cheapest is needed
    core::Examples examples{core::Example{&tree, &example}};
    core::ColSymbolPool pool;
    dsl::Program p;
    Status inner = [&]() -> Status {
      for (size_t j = 0; j < example.NumCols(); ++j) {
        MITRA_ASSIGN_OR_RETURN(
            std::vector<dsl::ColumnExtractor> cands,
            core::LearnColumnExtractors(examples, static_cast<int>(j), &pool,
                                        copts));
        if (cands.empty()) {
          return Status::SynthesisFailure(
              "no column extractor for column " + std::to_string(j) +
              " of table " + t.name);
        }
        p.columns.push_back(cands[0]);
      }
      p.formula = dsl::Dnf::True();
      dsl::EvalOptions ev = reduced.predicate.eval;
      ev.governor = &gov;
      MITRA_ASSIGN_OR_RETURN(std::vector<dsl::NodeTuple> tuples,
                             dsl::EvalProgramNodeTuples(tree, p, ev));
      // Coverage check: every expected data row must appear among the
      // projection-only rows (superset semantics, never a wrong subset).
      std::set<hdt::Row> produced;
      for (const dsl::NodeTuple& tuple : tuples) {
        produced.insert(dsl::ProjectData(tree, tuple));
      }
      for (const hdt::Row& want : example.rows()) {
        if (produced.find(want) == produced.end()) {
          return Status::SynthesisFailure(
              "projection-only fallback for table " + t.name +
              " does not cover the example rows");
        }
      }
      Install(t.name,
              LearnedTable{std::move(p), std::move(tuples),
                           std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count()});
      return Status::OK();
    }();
    report->learn_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    report->usage.Accumulate(gov.Usage());
    return inner;
  }();
  if (st.ok()) {
    report->outcome = TableOutcome::kFallback;
    report->rung = 2;
    return Status::OK();
  }
  report->retry_trail.push_back("rung 2: " + st.ToString());
  return st;
}

Result<MigrationReport> Migrator::LearnTolerant(
    const hdt::Hdt& example_tree,
    const std::map<std::string, hdt::Table>& table_examples,
    const MigratorOptions& opts) {
  MITRA_RETURN_IF_ERROR(schema_.Validate());
  programs_.clear();
  fk_plans_.clear();
  example_tuples_.clear();
  info_.clear();

  // Structural validation is whole-call: a missing or mis-shaped example
  // is a caller bug, not a per-table resource failure.
  for (const TableDef& t : schema_.tables) {
    auto it = table_examples.find(t.name);
    if (it == table_examples.end()) {
      return Status::InvalidArgument("no example for table " + t.name);
    }
    if (it->second.NumCols() != t.NumDataColumns()) {
      return Status::InvalidArgument(
          "example for table " + t.name + " has " +
          std::to_string(it->second.NumCols()) + " columns, schema has " +
          std::to_string(t.NumDataColumns()) + " data columns");
    }
  }

  MigrationReport report;
  report.tables.reserve(schema_.tables.size());
  for (const TableDef& t : schema_.tables) {
    TableReport tr;
    tr.table = t.name;
    Status st = LearnTableLadder(t, example_tree, table_examples.at(t.name),
                                 opts, &tr);
    if (!st.ok()) {
      tr.outcome = TableOutcome::kFailed;
      tr.status = st;
    }
    report.tables.push_back(std::move(tr));
  }

  // Foreign keys, with cascade skipping: a table whose FK references an
  // unavailable table is kSkipped, and that skip can cascade further.
  auto live = [](const TableReport* tr) {
    return tr != nullptr && tr->outcome != TableOutcome::kFailed &&
           tr->outcome != TableOutcome::kSkipped;
  };
  std::set<std::string> fk_done;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const TableDef& t : schema_.tables) {
      TableReport* tr = report.Find(t.name);
      if (!live(tr)) continue;
      bool has_fk = false;
      for (size_t c = 0; c < t.columns.size(); ++c) {
        if (t.columns[c].kind != ColumnKind::kForeignKey) continue;
        has_fk = true;
        const std::string& ref = t.columns[c].references;
        if (!live(report.Find(ref))) {
          tr->outcome = TableOutcome::kSkipped;
          tr->status = Status::SynthesisFailure(
              "skipped: referenced table " + ref + " is unavailable");
          tr->retry_trail.push_back("fk: referenced table " + ref +
                                    " unavailable");
          programs_.erase(t.name);
          changed = true;
          break;
        }
      }
      if (!live(tr) || !has_fk || fk_done.count(t.name) != 0) continue;
      fk_done.insert(t.name);
      common::Governor gov(opts.table_limits);
      Status st = LearnForeignKeysForTable(t, example_tree, opts, &gov);
      tr->usage.Accumulate(gov.Usage());
      if (!st.ok()) {
        tr->outcome = TableOutcome::kFailed;
        tr->status = st;
        tr->retry_trail.push_back("fk: " + st.ToString());
        programs_.erase(t.name);
        changed = true;
      }
    }
  }
  return report;
}

Database Migrator::ExecuteTolerant(const std::vector<const hdt::Hdt*>& docs,
                                   MigrationReport* report,
                                   const MigratorOptions& opts) const {
  MigrationReport scratch;
  if (report == nullptr) report = &scratch;

  Database db;
  // Cross-table memoization as in Execute(), but the cache is keyed by
  // printed extractor only — an entry from one tree is garbage on
  // another — so each document gets its own cache, shared across tables.
  std::vector<std::unique_ptr<core::ColumnCache>> doc_caches;
  doc_caches.reserve(docs.size());
  for (size_t d = 0; d < docs.size(); ++d) {
    doc_caches.push_back(std::make_unique<core::ColumnCache>());
  }

  for (const TableDef& t : schema_.tables) {
    TableReport* tr = report->Find(t.name);
    if (tr == nullptr) {
      TableReport fresh;
      fresh.table = t.name;
      // After a strict Learn() there is no ladder record; a table with a
      // program counts as rung-0 OK until execution says otherwise.
      if (programs_.count(t.name) != 0) {
        fresh.outcome = TableOutcome::kOk;
        fresh.rung = 0;
      } else {
        fresh.outcome = TableOutcome::kSkipped;
        fresh.status =
            Status::InvalidArgument("Learn() produced no program");
      }
      report->tables.push_back(std::move(fresh));
      tr = &report->tables.back();
    }
    if (tr->outcome == TableOutcome::kFailed ||
        tr->outcome == TableOutcome::kSkipped) {
      continue;
    }
    if (programs_.count(t.name) == 0) {
      tr->outcome = TableOutcome::kSkipped;
      tr->status = Status::InvalidArgument("Learn() produced no program");
      continue;
    }

    // Per-table isolation: fresh governor, fresh budget.
    common::Governor gov(opts.table_limits);
    core::ExecuteOptions exec_opts = opts.execute;
    exec_opts.governor = &gov;

    auto start = std::chrono::steady_clock::now();
    Status st;
    hdt::Table merged;
    bool first = true;
    for (size_t d = 0; d < docs.size(); ++d) {
      if (opts.execute.column_cache == nullptr) {
        exec_opts.column_cache = doc_caches[d].get();
      }
      auto built = BuildTable(t, *docs[d],
                              opts.doc_index_base + static_cast<int>(d),
                              exec_opts);
      if (!built.ok()) {
        st = built.status();
        break;
      }
      if (first) {
        merged = std::move(*built);
        first = false;
      } else {
        for (const hdt::Row& r : built->rows()) {
          st = merged.AppendRow(r);
          if (!st.ok()) break;
        }
        if (!st.ok()) break;
      }
    }
    tr->execute_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    tr->usage.Accumulate(gov.Usage());
    if (!st.ok()) {
      tr->outcome = TableOutcome::kFailed;
      tr->status = st;
      tr->retry_trail.push_back("execute: " + st.ToString());
      continue;
    }
    tr->rows_emitted = merged.NumRows();
    db.tables.emplace(t.name, std::move(merged));
  }
  return db;
}

Result<Database> Migrator::ExecuteAll(const std::vector<const hdt::Hdt*>& docs,
                                      const MigratorOptions& opts) const {
  Database merged;
  for (size_t d = 0; d < docs.size(); ++d) {
    MITRA_ASSIGN_OR_RETURN(
        Database part,
        Execute(*docs[d], opts.doc_index_base + static_cast<int>(d), opts));
    for (auto& [name, table] : part.tables) {
      auto it = merged.tables.find(name);
      if (it == merged.tables.end()) {
        merged.tables.emplace(name, std::move(table));
      } else {
        for (const hdt::Row& r : table.rows()) {
          MITRA_RETURN_IF_ERROR(it->second.AppendRow(r));
        }
      }
    }
  }
  return merged;
}

}  // namespace mitra::db
