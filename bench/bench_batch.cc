/// Batch-pipeline throughput (ISSUE 8): the learn-once/apply-many
/// economics that motivate `mitra batch`. Three configurations over the
/// same document fleet:
///
///  * naive      — one Learn + Execute per document, the pre-pipeline
///                 CLI behaviour (synthesis cost paid N times);
///  * batch cold — RunBatch with an empty program cache (synthesis paid
///                 once, then fan-out);
///  * batch warm — RunBatch again with the populated cache (zero
///                 synthesis; pure execution + merge).
///
/// All three must produce byte-identical merged tables; the benchmark
/// fails loudly if they do not. Emits BENCH_batch.json.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/csv.h"
#include "common/fs.h"
#include "common/thread_pool.h"
#include "db/migrator.h"
#include "obs/metrics.h"
#include "pipeline/batch.h"
#include "pipeline/program_cache.h"
#include "xml/xml_parser.h"

namespace mitra {
namespace {

std::string PersonDoc(int index, int persons) {
  std::string doc = "<db>";
  for (int p = 0; p < persons; ++p) {
    std::string id = std::to_string(index) + "_" + std::to_string(p);
    doc += "<person><name>p" + id + "</name><age>" +
           std::to_string(18 + (index * 7 + p) % 60) + "</age><city>c" +
           std::to_string(p % 9) + "</city></person>";
  }
  doc += "</db>";
  return doc;
}

/// Installs the fleet on the real filesystem under `dir` and returns the
/// manifest (example doc + example table + N documents).
pipeline::BatchManifest InstallFleet(const std::string& dir, int docs,
                                     int persons) {
  common::FileSystem* fs = common::GetFileSystem();
  pipeline::BatchManifest m;
  bench::WriteFileOrWarn(dir + "/example.xml",
                         "<db><person><name>Alice</name><age>30</age>"
                         "<city>Oslo</city></person><person><name>Bob</name>"
                         "<age>41</age><city>Lima</city></person></db>");
  bench::WriteFileOrWarn(dir + "/people.csv",
                         "Alice,30,Oslo\nBob,41,Lima\n");
  m.example_doc = dir + "/example.xml";
  m.tables.emplace_back("people", dir + "/people.csv");
  for (int d = 0; d < docs; ++d) {
    std::string path = dir + "/docs/d" + std::to_string(d) + ".xml";
    bench::WriteFileOrWarn(path, PersonDoc(d, persons));
    m.documents.push_back(path);
  }
  (void)fs;
  return m;
}

/// The pre-pipeline baseline: a fresh Migrator learns from the example
/// and migrates ONE document, repeated per document — synthesis cost is
/// paid `docs` times. Returns the merged CSV bytes for the check.
Result<std::string> NaivePerDocRun(const pipeline::BatchManifest& m) {
  common::FileSystem* fs = common::GetFileSystem();
  MITRA_ASSIGN_OR_RETURN(std::string example_text,
                         fs->ReadFile(m.example_doc));
  MITRA_ASSIGN_OR_RETURN(std::string csv_text,
                         fs->ReadFile(m.tables[0].second));
  std::string merged;
  for (size_t d = 0; d < m.documents.size(); ++d) {
    MITRA_ASSIGN_OR_RETURN(hdt::Hdt example, xml::ParseXml(example_text));
    MITRA_ASSIGN_OR_RETURN(auto rows, ParseCsv(csv_text));
    MITRA_ASSIGN_OR_RETURN(hdt::Table table,
                           hdt::Table::FromRows(std::move(rows)));
    db::DatabaseSchema schema;
    db::TableDef def;
    def.name = m.tables[0].first;
    for (size_t c = 0; c < table.NumCols(); ++c) {
      def.columns.push_back(
          db::ColumnDef{"c" + std::to_string(c), db::ColumnKind::kData, ""});
    }
    schema.tables.push_back(std::move(def));
    std::map<std::string, hdt::Table> examples;
    examples.emplace(m.tables[0].first, std::move(table));
    db::Migrator migrator(schema);
    MITRA_RETURN_IF_ERROR(migrator.Learn(example, examples));
    MITRA_ASSIGN_OR_RETURN(std::string doc_text,
                           fs->ReadFile(m.documents[d]));
    MITRA_ASSIGN_OR_RETURN(hdt::Hdt doc, xml::ParseXml(doc_text));
    MITRA_ASSIGN_OR_RETURN(db::Database db,
                           migrator.Execute(doc, static_cast<int>(d)));
    merged += WriteCsv(db.tables.at(m.tables[0].first).rows());
  }
  return merged;
}

int Run(int argc, char** argv) {
  bench::Args args(argc, argv);
  const int docs = static_cast<int>(args.Int("docs", 20));
  const int persons = static_cast<int>(args.Int("persons", 200));
  const long threads = args.Int("threads", 4);
  const std::string dir = args.Str("workdir", "bench_batch_fleet");

  pipeline::BatchManifest manifest = InstallFleet(dir, docs, persons);
  common::FileSystem* fs = common::GetFileSystem();

  std::printf("== Batch pipeline throughput: %d docs x %d persons ==\n",
              docs, persons);

  bench::Timer naive_t;
  auto naive = NaivePerDocRun(manifest);
  double naive_s = naive_t.Seconds();
  if (!naive.ok()) {
    std::fprintf(stderr, "naive run failed: %s\n",
                 naive.status().ToString().c_str());
    return 1;
  }
  std::printf("%-12s %8.3fs  %7.1f docs/s\n", "naive", naive_s,
              docs / naive_s);

  common::ThreadPool pool(static_cast<size_t>(threads));
  pipeline::FsProgramCache cache(dir + "/cache");
  auto run_batch = [&](const char* label,
                       const std::string& outdir) -> double {
    pipeline::BatchOptions opts;
    opts.outdir = outdir;
    opts.journal = outdir + "/journal";
    opts.cache = &cache;
    opts.pool = threads > 1 ? &pool : nullptr;
    bench::Timer t;
    auto report = pipeline::RunBatch(manifest, opts);
    double s = t.Seconds();
    if (!report.ok() || !report->complete()) {
      std::fprintf(stderr, "%s batch failed: %s\n", label,
                   report.ok() ? "incomplete"
                               : report.status().ToString().c_str());
      return -1.0;
    }
    std::printf("%-12s %8.3fs  %7.1f docs/s  cache_hit=%d\n", label, s,
                docs / s, report->learn.tables[0].cache_hit ? 1 : 0);
    return s;
  };

  obs::MetricsSnapshot before_warm;
  double cold_s = run_batch("batch cold", dir + "/out-cold");
  before_warm = obs::SnapshotMetrics();
  double warm_s = run_batch("batch warm", dir + "/out-warm");
  obs::MetricsSnapshot warm_delta = obs::SnapshotDelta(before_warm);
  if (cold_s < 0 || warm_s < 0) return 1;

  auto cold_bytes = fs->ReadFile(dir + "/out-cold/people.csv");
  auto warm_bytes = fs->ReadFile(dir + "/out-warm/people.csv");
  bool identical = cold_bytes.ok() && warm_bytes.ok() &&
                   *cold_bytes == *naive && *warm_bytes == *naive;
  std::printf("outputs byte-identical across all three runs: %s\n",
              identical ? "yes" : "NO (bug!)");
  if (!identical) return 1;

  const uint64_t warm_candidates =
      warm_delta.count("synth/phase2/candidates_enumerated")
          ? warm_delta["synth/phase2/candidates_enumerated"]
          : 0;
  std::printf("warm-run synthesis candidates enumerated: %llu\n",
              static_cast<unsigned long long>(warm_candidates));

  std::string json =
      bench::Json()
          .Int("docs", docs)
          .Int("persons_per_doc", persons)
          .Int("threads", threads)
          .Num("naive_seconds", naive_s)
          .Num("batch_cold_seconds", cold_s)
          .Num("batch_warm_seconds", warm_s)
          .Num("naive_docs_per_second", docs / naive_s)
          .Num("batch_cold_docs_per_second", docs / cold_s)
          .Num("batch_warm_docs_per_second", docs / warm_s)
          .Num("speedup_cold_vs_naive", naive_s / cold_s)
          .Num("speedup_warm_vs_naive", naive_s / warm_s)
          .Int("warm_candidates_enumerated",
               static_cast<long long>(warm_candidates))
          .Int("outputs_identical", identical ? 1 : 0)
          .Build();
  bench::WriteFileOrWarn(args.Str("json", "BENCH_batch.json"), json + "\n");
  return 0;
}

}  // namespace
}  // namespace mitra

int main(int argc, char** argv) { return mitra::Run(argc, argv); }
