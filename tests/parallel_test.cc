#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.h"
#include "common/thread_pool.h"
#include "core/executor.h"
#include "core/synthesizer.h"
#include "db/migrator.h"
#include "json/json_parser.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "workload/corpus.h"
#include "workload/datasets.h"
#include "xml/xml_parser.h"

/// \file parallel_test.cc
/// The parallel engine's contract is determinism: for every thread count,
/// synthesis returns the same program and execution the same tuple
/// sequence as the sequential run. These tests check the ThreadPool
/// primitive itself, then the contract end-to-end over the full corpus
/// and over Migrator::Learn and LearnTolerant, which learn a schema's
/// tables concurrently.

namespace mitra {
namespace {

using test::MakeTable;
using test::ParseXmlOrDie;

// ---------------------------------------------------------------------------
// ThreadPool / ParallelFor primitives

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  common::ThreadPool pool(4);
  constexpr size_t kN = 10'000;
  std::vector<std::atomic<int>> counts(kN);
  common::ParallelFor(&pool, kN, [&](size_t i) {
    counts[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyRangeDoesNotInvokeBody) {
  common::ThreadPool pool(4);
  std::atomic<int> calls{0};
  common::ParallelFor(&pool, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, NullPoolRunsInline) {
  std::vector<size_t> order;
  common::ParallelFor(nullptr, 5, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, SingleThreadPoolRunsInlineInOrder) {
  common::ThreadPool pool(1);
  std::vector<size_t> order;
  common::ParallelFor(&pool, 4, [&](size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  common::ThreadPool pool(4);
  EXPECT_THROW(
      common::ParallelFor(&pool, 100,
                          [&](size_t i) {
                            if (i == 37) throw std::runtime_error("boom");
                          }),
      std::runtime_error);
  // The pool must still be fully usable after an error.
  std::atomic<size_t> sum{0};
  common::ParallelFor(&pool, 100, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  common::ThreadPool pool(2);
  std::vector<std::atomic<int>> counts(64);
  common::ParallelFor(&pool, 8, [&](size_t i) {
    // From a worker thread, the inner loop must run inline rather than
    // re-enqueue (which could deadlock a saturated pool).
    common::ParallelFor(&pool, 8, [&](size_t j) {
      counts[i * 8 + j].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (size_t i = 0; i < counts.size(); ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "slot " << i;
  }
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(common::ThreadPool::HardwareThreads(), 1u);
}

// ---------------------------------------------------------------------------
// Synthesis determinism across thread counts

/// Learns every solvable corpus task at the given thread count and
/// returns the programs keyed by task order.
std::vector<std::string> SynthesizeCorpus(int threads) {
  std::vector<std::string> programs;
  for (const workload::CorpusTask& task : workload::FullCorpus()) {
    if (!task.expect_solvable) continue;
    bool is_json = task.format == workload::DocFormat::kJson;
    auto tree = is_json ? json::ParseJson(task.document)
                        : xml::ParseXml(task.document);
    if (!tree.ok()) continue;
    auto table = hdt::Table::FromRows(task.output);
    if (!table.ok()) continue;
    core::SynthesisOptions opts;
    opts.num_threads = threads;
    auto r = core::LearnTransformation(*tree, *table, opts);
    programs.push_back(task.id + "\t" +
                       (r.ok() ? dsl::ToString(r->program)
                               : r.status().ToString()));
  }
  return programs;
}

TEST(ParallelSynthesis, CorpusProgramsIdenticalAcrossThreadCounts) {
  std::vector<std::string> base = SynthesizeCorpus(1);
  ASSERT_FALSE(base.empty());
  for (int threads : {4, 8}) {
    std::vector<std::string> got = SynthesizeCorpus(threads);
    ASSERT_EQ(got.size(), base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(got[i], base[i]) << "threads=" << threads;
    }
  }
}

TEST(ParallelSynthesis, ReportsMemoTraffic) {
  hdt::Hdt t = ParseXmlOrDie(R"(
<people>
  <person><name>A</name><city>X</city></person>
  <person><name>B</name><city>Y</city></person>
</people>
)");
  hdt::Table r = MakeTable({{"A", "X"}, {"B", "Y"}});
  auto result = core::LearnTransformation(t, r);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.memo_misses, 0u);
}

// ---------------------------------------------------------------------------
// Concurrent table learning in db::Migrator::Learn

hdt::Hdt ParseDatasetDoc(const workload::DatasetSpec& spec,
                         const std::string& doc) {
  return spec.format == workload::DocFormat::kXml ? ParseXmlOrDie(doc)
                                                  : test::ParseJsonOrDie(doc);
}

std::map<std::string, hdt::Table> DatasetExamples(
    const workload::DatasetSpec& spec) {
  std::map<std::string, hdt::Table> examples;
  for (const auto& [name, rows] : spec.example_tables) {
    examples[name] = MakeTable(rows);
  }
  return examples;
}

db::MigratorOptions LearnOptions(int threads,
                                 db::ProgramCache* cache = nullptr) {
  db::MigratorOptions opts;
  opts.synthesis.num_threads = threads;
  opts.program_cache = cache;
  return opts;
}

/// Everything a learned migration determines, printed: info() in order,
/// the FK plans, and the CSV of every table migrated from `doc`.
std::string DescribeMigration(const db::Migrator& m, const hdt::Hdt& doc) {
  std::string out;
  for (const db::TableSynthesisInfo& info : m.info()) {
    out += info.table + "\t" + dsl::ToString(info.program) + "\n";
  }
  for (const auto& [table, plans] : m.fk_plans()) {
    for (const auto& [col, plan] : plans) {
      out += "fk " + table + "." + std::to_string(col) + ":";
      for (size_t j = 0; j < plan.extractors.size(); ++j) {
        out += " t" + std::to_string(plan.source_cols[j]) + "/" +
               dsl::ToString(plan.extractors[j]);
      }
      out += "\n";
    }
  }
  auto db = m.Execute(doc);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  if (!db.ok()) return out;
  for (const auto& [name, table] : db->tables) {
    out += "csv " + name + "\n" + WriteCsv(table.rows());
  }
  return out;
}

TEST(ParallelMigratorLearn, Table2SchemasIdenticalAcrossThreadCounts) {
  for (const workload::DatasetSpec* spec : workload::AllDatasets()) {
    hdt::Hdt example = ParseDatasetDoc(*spec, spec->example_document);
    hdt::Hdt doc = ParseDatasetDoc(*spec, spec->generate(30, 7));
    std::map<std::string, hdt::Table> examples = DatasetExamples(*spec);
    std::string base;
    for (int threads : {1, 8}) {
      db::Migrator m(spec->schema);
      Status st = m.Learn(example, examples, LearnOptions(threads));
      ASSERT_TRUE(st.ok()) << spec->name << ": " << st.ToString();
      ASSERT_EQ(m.info().size(), spec->schema.tables.size()) << spec->name;
      for (size_t i = 0; i < m.info().size(); ++i) {
        EXPECT_EQ(m.info()[i].table, spec->schema.tables[i].name)
            << spec->name << " threads=" << threads;
      }
      std::string got = DescribeMigration(m, doc);
      if (threads == 1) {
        base = std::move(got);
      } else {
        EXPECT_EQ(got, base) << spec->name << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelMigratorLearn, FirstFailingTableInSchemaOrderWins) {
  hdt::Hdt tree = ParseXmlOrDie(R"(
<people>
  <person><name>A</name><city>X</city></person>
  <person><name>B</name><city>Y</city></person>
</people>
)");
  db::DatabaseSchema schema;
  for (const char* name : {"names", "bad1", "cities", "bad2", "missing"}) {
    schema.tables.push_back(
        db::TableDef{name, {{"v", db::ColumnKind::kData, ""}}});
  }
  // No column extractor reaches a value absent from the tree, so bad1 and
  // bad2 cannot be learned; "missing" has no example at all.
  std::map<std::string, hdt::Table> examples{
      {"names", MakeTable({{"A"}, {"B"}})},
      {"bad1", MakeTable({{"nowhere"}})},
      {"cities", MakeTable({{"X"}, {"Y"}})},
      {"bad2", MakeTable({{"absent"}})},
  };
  std::optional<std::string> base;
  for (int threads : {1, 8}) {
    db::Migrator m(schema);
    Status st = m.Learn(tree, examples, LearnOptions(threads));
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kSynthesisFailure) << st.ToString();
    EXPECT_NE(st.message().find("table bad1"), std::string::npos)
        << "threads=" << threads << ": " << st.ToString();
    if (!base) {
      base = st.ToString();
    } else {
      EXPECT_EQ(st.ToString(), *base) << "threads=" << threads;
    }
  }
}

/// Misses every lookup and records each Store with its calling thread.
class RecordingCache : public db::ProgramCache {
 public:
  std::optional<dsl::Program> Lookup(const std::string&) override {
    return std::nullopt;
  }
  Status Store(const std::string& key, const dsl::Program&) override {
    stored.push_back(key);
    threads.push_back(std::this_thread::get_id());
    return Status::OK();
  }
  std::vector<std::string> stored;
  std::vector<std::thread::id> threads;
};

TEST(ParallelMigratorLearn, CacheStoresRunInSchemaOrderOnTheCallingThread) {
  const workload::DatasetSpec& spec = workload::Dblp();
  hdt::Hdt example = ParseDatasetDoc(spec, spec.example_document);
  std::map<std::string, hdt::Table> examples = DatasetExamples(spec);
  std::vector<std::string> want;
  for (const db::TableDef& t : spec.schema.tables) {
    want.push_back(db::ProgramCacheKey(example, examples.at(t.name)));
  }
  for (int threads : {1, 8}) {
    RecordingCache cache;
    db::Migrator m(spec.schema);
    Status st = m.Learn(example, examples, LearnOptions(threads, &cache));
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(cache.stored, want) << "threads=" << threads;
    for (const std::thread::id& id : cache.threads) {
      EXPECT_EQ(id, std::this_thread::get_id()) << "threads=" << threads;
    }
  }
}

TEST(ParallelMigratorLearn, TolerantMatchesStrictOnTable2Schemas) {
  for (const workload::DatasetSpec* spec : workload::AllDatasets()) {
    hdt::Hdt example = ParseDatasetDoc(*spec, spec->example_document);
    hdt::Hdt doc = ParseDatasetDoc(*spec, spec->generate(30, 7));
    std::map<std::string, hdt::Table> examples = DatasetExamples(*spec);
    db::Migrator strict(spec->schema);
    Status st = strict.Learn(example, examples, LearnOptions(1));
    ASSERT_TRUE(st.ok()) << spec->name << ": " << st.ToString();
    const std::string want = DescribeMigration(strict, doc);
    for (int threads : {1, 8}) {
      db::Migrator m(spec->schema);
      auto report = m.LearnTolerant(example, examples, LearnOptions(threads));
      ASSERT_TRUE(report.ok())
          << spec->name << ": " << report.status().ToString();
      ASSERT_EQ(report->tables.size(), spec->schema.tables.size());
      for (const db::TableReport& t : report->tables) {
        EXPECT_EQ(t.outcome, db::TableOutcome::kOk)
            << spec->name << "." << t.table << " threads=" << threads << ": "
            << t.status.ToString();
        EXPECT_EQ(t.rung, 0) << spec->name << "." << t.table;
      }
      EXPECT_EQ(DescribeMigration(m, doc), want)
          << spec->name << " threads=" << threads;
    }
  }
}

/// What a tolerant report determines apart from timings and budget usage:
/// per table, its outcome, rung, status and retry-trail length.
std::string DescribeReport(const db::MigrationReport& report) {
  std::string out;
  for (const db::TableReport& t : report.tables) {
    out += t.table + " " + db::TableOutcomeName(t.outcome) +
           " rung=" + std::to_string(t.rung) +
           " trail=" + std::to_string(t.retry_trail.size()) + " " +
           t.status.ToString() + "\n";
  }
  return out;
}

TEST(ParallelMigratorLearn, TolerantFailuresIdenticalAcrossThreadCounts) {
  hdt::Hdt tree = ParseXmlOrDie(R"(
<corpus>
  <paper key="p1"><title>T1</title><year>2001</year>
    <author><name>A</name></author>
    <author><name>B</name></author>
  </paper>
  <paper key="p2"><title>T2</title><year>2002</year>
    <author><name>C</name></author>
  </paper>
</corpus>
)");
  // The failure scenarios of migration_report_test: a poisoned table
  // (its example values occur nowhere in the document, so every rung
  // fails) beside healthy tables with foreign keys, and a foreign key to
  // such a table, which is skipped.
  db::DatabaseSchema poisoned;
  poisoned.tables = {
      {"papers",
       {{"pid", db::ColumnKind::kPrimaryKey, ""},
        {"title", db::ColumnKind::kData, ""},
        {"year", db::ColumnKind::kData, ""}}},
      {"authorship",
       {{"aid", db::ColumnKind::kPrimaryKey, ""},
        {"name", db::ColumnKind::kData, ""},
        {"paper", db::ColumnKind::kForeignKey, "papers"}}},
      {"journal", {{"jname", db::ColumnKind::kData, ""}}},
      {"issue",
       {{"iid", db::ColumnKind::kData, ""},
        {"jref", db::ColumnKind::kForeignKey, "papers"}}}};
  std::map<std::string, hdt::Table> poisoned_examples{
      {"papers", MakeTable({{"T1", "2001"}, {"T2", "2002"}})},
      {"authorship", MakeTable({{"A"}, {"B"}, {"C"}})},
      {"journal", MakeTable({{"NOT-IN-DOCUMENT"}})},
      {"issue", MakeTable({{"T1"}, {"T2"}})}};
  db::DatabaseSchema cascade;
  cascade.tables = {
      {"broken",
       {{"bid", db::ColumnKind::kPrimaryKey, ""},
        {"x", db::ColumnKind::kData, ""}}},
      {"dependent",
       {{"name", db::ColumnKind::kData, ""},
        {"ref", db::ColumnKind::kForeignKey, "broken"}}}};
  std::map<std::string, hdt::Table> cascade_examples{
      {"broken", MakeTable({{"NOT-IN-DOCUMENT"}})},
      {"dependent", MakeTable({{"A"}, {"B"}, {"C"}})}};

  for (const auto& [schema, examples] :
       {std::pair{&poisoned, &poisoned_examples},
        std::pair{&cascade, &cascade_examples}}) {
    std::optional<std::string> base;
    for (int threads : {1, 8}) {
      db::Migrator m(*schema);
      auto report = m.LearnTolerant(tree, *examples, LearnOptions(threads));
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_FALSE(report->complete());
      std::string got = DescribeReport(*report);
      if (!base) {
        base = std::move(got);
      } else {
        EXPECT_EQ(got, *base) << "threads=" << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent table execution in db::Migrator::Execute / ExecuteTolerant

/// Every table of `db`, printed as CSV in name order.
std::string DescribeDatabase(const db::Database& db) {
  std::string out;
  for (const auto& [name, table] : db.tables) {
    out += "csv " + name + "\n" + WriteCsv(table.rows());
  }
  return out;
}

/// Runs Execute and ExecuteTolerant on `doc` with no pool and with an
/// 8-thread execute.pool, under `limits`, and expects the same databases,
/// Execute errors and report outcomes from both.
void ExpectExecutionIndependentOfPool(const db::Migrator& m,
                                      const db::MigrationReport& learned,
                                      const hdt::Hdt& doc,
                                      const common::ResourceLimits& limits,
                                      const std::string& what) {
  common::ThreadPool pool(8);
  std::optional<std::string> base;
  for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr),
                                &pool}) {
    db::MigratorOptions opts;
    opts.table_limits = limits;
    opts.execute.pool = p;
    auto strict = m.Execute(doc, 3, opts);
    db::MigrationReport report = learned;
    db::Database tolerant = m.ExecuteTolerant(doc, 3, &report, opts);
    std::string got = "strict " + (strict.ok() ? DescribeDatabase(*strict)
                                               : strict.status().ToString());
    got += "\ntolerant " + DescribeDatabase(tolerant) + DescribeReport(report);
    if (strict.ok()) {
      EXPECT_EQ(DescribeDatabase(tolerant), DescribeDatabase(*strict)) << what;
    }
    if (!base) {
      base = std::move(got);
    } else {
      EXPECT_EQ(got, *base) << what << " with an 8-thread pool";
    }
  }
}

TEST(ParallelMigratorExecute, Table2IdenticalWithAndWithoutPool) {
  for (const workload::DatasetSpec* spec : workload::AllDatasets()) {
    hdt::Hdt example = ParseDatasetDoc(*spec, spec->example_document);
    hdt::Hdt doc = ParseDatasetDoc(*spec, spec->generate(30, 7));
    db::Migrator m(spec->schema);
    auto learned =
        m.LearnTolerant(example, DatasetExamples(*spec), LearnOptions(8));
    ASSERT_TRUE(learned.ok())
        << spec->name << ": " << learned.status().ToString();
    ASSERT_TRUE(learned->complete()) << spec->name;
    ExpectExecutionIndependentOfPool(m, *learned, doc, {}, spec->name);
    common::ResourceLimits starve;
    starve.max_rows = 1;
    ExpectExecutionIndependentOfPool(m, *learned, doc, starve,
                                     spec->name + " starved");
  }
}

TEST(ParallelMigratorExecute, FailedTablesIdenticalWithAndWithoutPool) {
  hdt::Hdt tree = ParseXmlOrDie(R"(
<corpus>
  <paper key="p1"><title>T1</title><year>2001</year>
    <author><name>A</name></author>
    <author><name>B</name></author>
  </paper>
  <paper key="p2"><title>T2</title><year>2002</year>
    <author><name>C</name></author>
  </paper>
</corpus>
)");
  // migration_report_test's scenarios: a poisoned table that no rung can
  // learn beside healthy tables with foreign keys, and a foreign key to a
  // failed table, which is skipped.
  db::DatabaseSchema poisoned;
  poisoned.tables = {
      {"papers",
       {{"pid", db::ColumnKind::kPrimaryKey, ""},
        {"title", db::ColumnKind::kData, ""},
        {"year", db::ColumnKind::kData, ""}}},
      {"authorship",
       {{"aid", db::ColumnKind::kPrimaryKey, ""},
        {"name", db::ColumnKind::kData, ""},
        {"paper", db::ColumnKind::kForeignKey, "papers"}}},
      {"journal", {{"jname", db::ColumnKind::kData, ""}}},
      {"volume",
       {{"vid", db::ColumnKind::kData, ""},
        {"jref", db::ColumnKind::kForeignKey, "papers"}}}};
  std::map<std::string, hdt::Table> poisoned_examples{
      {"papers", MakeTable({{"T1", "2001"}, {"T2", "2002"}})},
      {"authorship", MakeTable({{"A"}, {"B"}, {"C"}})},
      {"journal", MakeTable({{"NOT-IN-DOCUMENT"}})},
      {"volume", MakeTable({{"T1"}, {"T2"}})}};
  db::DatabaseSchema cascade;
  cascade.tables = {
      {"broken",
       {{"bid", db::ColumnKind::kPrimaryKey, ""},
        {"x", db::ColumnKind::kData, ""}}},
      {"dependent",
       {{"name", db::ColumnKind::kData, ""},
        {"ref", db::ColumnKind::kForeignKey, "broken"}}}};
  std::map<std::string, hdt::Table> cascade_examples{
      {"broken", MakeTable({{"NOT-IN-DOCUMENT"}})},
      {"dependent", MakeTable({{"A"}, {"B"}, {"C"}})}};

  common::ResourceLimits starve;
  starve.max_rows = 1;
  for (const auto& [schema, examples] :
       {std::pair{&poisoned, &poisoned_examples},
        std::pair{&cascade, &cascade_examples}}) {
    db::Migrator m(*schema);
    auto learned = m.LearnTolerant(tree, *examples, LearnOptions(8));
    ASSERT_TRUE(learned.ok()) << learned.status().ToString();
    ASSERT_FALSE(learned->complete());
    const std::string what = schema->tables.front().name;
    ExpectExecutionIndependentOfPool(m, *learned, tree, {}, what);
    ExpectExecutionIndependentOfPool(m, *learned, tree, starve,
                                     what + " starved");
  }
}

// ---------------------------------------------------------------------------
// Executor determinism: chunked enumeration vs sequential

TEST(ParallelExecutor, CorpusTupleSequencesIdentical) {
  common::ThreadPool pool(8);
  size_t programs_checked = 0;
  for (const workload::CorpusTask& task : workload::FullCorpus()) {
    if (!task.expect_solvable) continue;
    bool is_json = task.format == workload::DocFormat::kJson;
    auto tree = is_json ? json::ParseJson(task.document)
                        : xml::ParseXml(task.document);
    if (!tree.ok()) continue;
    auto table = hdt::Table::FromRows(task.output);
    if (!table.ok()) continue;
    auto learned = core::LearnTransformation(*tree, *table);
    if (!learned.ok()) continue;

    core::OptimizedExecutor exec(learned->program);
    auto seq = exec.ExecuteNodes(*tree);
    core::ExecuteOptions popts;
    popts.pool = &pool;
    auto par = exec.ExecuteNodes(*tree, popts);
    ASSERT_TRUE(seq.ok()) << task.id;
    ASSERT_TRUE(par.ok()) << task.id;
    // Exact sequence equality — not just set equality: the parallel merge
    // must reproduce the sequential emission order.
    ASSERT_EQ(*seq, *par) << task.id;
    ++programs_checked;
  }
  EXPECT_GT(programs_checked, 50u);
}

TEST(ParallelExecutor, OverflowStatusMatchesSequential) {
  // A join-free 2-column program over n candidates each emits n^2 rows;
  // cap below that and both paths must report resource exhaustion.
  hdt::Hdt t = ParseXmlOrDie(R"(
<l>
  <a>1</a><a>2</a><a>3</a><a>4</a><a>5</a><a>6</a><a>7</a><a>8</a>
</l>
)");
  std::vector<hdt::Row> rows;
  for (int i = 1; i <= 8; ++i) {
    for (int j = 1; j <= 8; ++j) {
      rows.push_back({std::to_string(i), std::to_string(j)});
    }
  }
  auto learned = core::LearnTransformation(t, MakeTable(rows));
  ASSERT_TRUE(learned.ok()) << learned.status().ToString();
  core::OptimizedExecutor exec(learned->program);

  common::ThreadPool pool(4);
  core::ExecuteOptions seq_opts, par_opts;
  seq_opts.max_output_rows = 10;
  par_opts.max_output_rows = 10;
  par_opts.pool = &pool;
  auto seq = exec.ExecuteNodes(t, seq_opts);
  auto par = exec.ExecuteNodes(t, par_opts);
  ASSERT_FALSE(seq.ok());
  ASSERT_FALSE(par.ok());
  EXPECT_EQ(seq.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(par.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(seq.status().message(), par.status().message());
}

TEST(ColumnCacheThreadSafety, ConcurrentLookupsEvaluateOnce) {
  hdt::Hdt t = ParseXmlOrDie("<r><a>1</a><a>2</a></r>");
  dsl::ColumnExtractor pi{{{dsl::ColOp::kDescendants, "a", 0}}};
  core::ColumnCache cache(t);
  common::ThreadPool pool(4);
  std::vector<const std::vector<hdt::NodeId>*> ptrs(64);
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  common::ParallelFor(&pool, 64,
                      [&](size_t i) { ptrs[i] = cache.Column(pi).get(); });
  obs::MetricsSnapshot delta = obs::SnapshotDelta(before);
  // Single-flight: one lookup evaluates the column, the other 63 read
  // (or wait for) its one stored vector.
  for (size_t i = 1; i < ptrs.size(); ++i) {
    ASSERT_EQ(ptrs[i], ptrs[0]);
  }
  EXPECT_EQ(*ptrs[0], dsl::EvalColumn(t, pi));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.hits(), 63u);
#if MITRA_OBS
  EXPECT_EQ(delta["exec/column_cache/misses"], 1u);
  EXPECT_EQ(delta["exec/column_cache/hits"], 63u);
#endif
}

// A document's tables share one single-flight column cache, so its hit
// count is the number of lookups minus the number of distinct columns,
// on an 8-thread pool as without one.
TEST(ParallelMigratorExecute, ColumnCacheHitsRepeatOnAPool) {
  const workload::DatasetSpec* dblp = nullptr;
  for (const workload::DatasetSpec* spec : workload::AllDatasets()) {
    if (spec->name == "DBLP") dblp = spec;
  }
  ASSERT_NE(dblp, nullptr);
  hdt::Hdt example = ParseDatasetDoc(*dblp, dblp->example_document);
  hdt::Hdt doc = ParseDatasetDoc(*dblp, dblp->generate(3000, 7));
  db::Migrator m(dblp->schema);
  Status learned = m.Learn(example, DatasetExamples(*dblp), LearnOptions(4));
  ASSERT_TRUE(learned.ok()) << learned.ToString();

  common::ThreadPool pool(8);
  auto hits_of_one_execute = [&](common::ThreadPool* p) {
    db::MigratorOptions opts;
    opts.execute.pool = p;
    obs::MetricsSnapshot before = obs::SnapshotMetrics();
    auto db = m.Execute(doc, 0, opts);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return obs::SnapshotDelta(before)["exec/column_cache/hits"];
  };
  const uint64_t want = hits_of_one_execute(nullptr);
#if MITRA_OBS
  EXPECT_GT(want, 0u);
#endif
  for (int run = 0; run < 10; ++run) {
    EXPECT_EQ(hits_of_one_execute(&pool), want) << "run " << run;
  }
}

}  // namespace
}  // namespace mitra
