#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/fs.h"
#include "common/thread_pool.h"
#include "db/migrator.h"
#include "dsl/eval.h"
#include "obs/metrics.h"
#include "pipeline/batch.h"
#include "pipeline/program_cache.h"
#include "testing/generators.h"
#include "testing/rng.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

/// pipeline_equivalence_test (ISSUE 8): the batch pipeline's merged output
/// must be BYTE-identical to a sequential per-document migration — cold
/// cache, warm cache, 1 thread, 8 threads, hand-authored and generated
/// fleets alike — and a warm-cache run must perform zero synthesis.

namespace mitra::pipeline {
namespace {

class ScopedMemoryFs {
 public:
  ScopedMemoryFs() { common::SetFileSystemForTest(&fs_); }
  ~ScopedMemoryFs() { common::SetFileSystemForTest(nullptr); }
  common::MemoryFileSystem& fs() { return fs_; }

 private:
  common::MemoryFileSystem fs_;
};

/// One in-memory fleet: a shared example (doc + per-table CSV) and N
/// documents, all written under `/fleet`.
struct Fleet {
  BatchManifest manifest;
  std::vector<std::string> doc_texts;
  std::string example_text;
};

Fleet InstallFleet(common::MemoryFileSystem* fs, const std::string& example,
                   const std::map<std::string, std::string>& tables,
                   const std::vector<std::string>& docs) {
  Fleet fleet;
  fleet.example_text = example;
  EXPECT_TRUE(fs->WriteFile("/fleet/example.xml", example).ok());
  fleet.manifest.example_doc = "/fleet/example.xml";
  for (const auto& [name, csv] : tables) {
    std::string path = "/fleet/" + name + ".csv";
    EXPECT_TRUE(fs->WriteFile(path, csv).ok());
    fleet.manifest.tables.emplace_back(name, path);
  }
  for (size_t d = 0; d < docs.size(); ++d) {
    std::string path = "/fleet/docs/d" + std::to_string(d) + ".xml";
    EXPECT_TRUE(fs->WriteFile(path, docs[d]).ok());
    fleet.manifest.documents.push_back(path);
    fleet.doc_texts.push_back(docs[d]);
  }
  return fleet;
}

/// The sequential reference: learn from the example, one ExecuteTolerant
/// per document in fleet order with its fleet index, WriteCsv per table
/// concatenated. This is the byte string every batch configuration must
/// reproduce.
std::map<std::string, std::string> SequentialReference(const Fleet& fleet) {
  auto example = xml::ParseXml(fleet.example_text);
  EXPECT_TRUE(example.ok()) << example.status().ToString();
  db::DatabaseSchema schema;
  std::map<std::string, hdt::Table> examples;
  for (const auto& [name, path] : fleet.manifest.tables) {
    auto csv = common::GetFileSystem()->ReadFile(path);
    EXPECT_TRUE(csv.ok());
    auto rows = ParseCsv(*csv);
    EXPECT_TRUE(rows.ok());
    auto table = hdt::Table::FromRows(std::move(*rows));
    EXPECT_TRUE(table.ok());
    db::TableDef def;
    def.name = name;
    for (size_t c = 0; c < table->NumCols(); ++c) {
      def.columns.push_back(
          db::ColumnDef{"c" + std::to_string(c), db::ColumnKind::kData, ""});
    }
    schema.tables.push_back(std::move(def));
    examples.emplace(name, std::move(*table));
  }
  db::Migrator migrator(schema);
  auto report = migrator.LearnTolerant(*example, examples);
  EXPECT_TRUE(report.ok()) << report.status().ToString();

  std::map<std::string, std::string> result;
  for (size_t d = 0; d < fleet.doc_texts.size(); ++d) {
    auto doc = xml::ParseXml(fleet.doc_texts[d]);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    db::Database out =
        migrator.ExecuteTolerant(*doc, static_cast<int>(d), &*report);
    for (const auto& [name, table] : out.tables) {
      result[name] += WriteCsv(table.rows());
    }
  }
  return result;
}

struct BatchRun {
  BatchReport report;
  std::map<std::string, std::string> outputs;
};

/// Runs the batch into a fresh outdir and collects the final table bytes.
BatchRun RunBatchInto(const Fleet& fleet, const std::string& outdir,
                      db::ProgramCache* cache, common::ThreadPool* pool) {
  BatchOptions opts;
  opts.outdir = outdir;
  opts.cache = cache;
  opts.pool = pool;
  opts.journal = outdir + "/journal";
  auto report = RunBatch(fleet.manifest, opts);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  BatchRun run;
  run.report = std::move(*report);
  for (const auto& [name, path] : fleet.manifest.tables) {
    auto bytes =
        common::GetFileSystem()->ReadFile(outdir + "/" + name + ".csv");
    EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
    if (bytes.ok()) run.outputs[name] = *bytes;
  }
  return run;
}

void ExpectSameOutputs(const std::map<std::string, std::string>& want,
                       const std::map<std::string, std::string>& got,
                       const char* label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (const auto& [name, bytes] : want) {
    auto it = got.find(name);
    ASSERT_NE(it, got.end()) << label << ": missing table " << name;
    EXPECT_EQ(bytes, it->second)
        << label << ": table " << name << " is not byte-identical";
  }
}

TEST(PipelineEquivalence, HandAuthoredFleetColdWarmAndParallel) {
  ScopedMemoryFs scoped;
  std::vector<std::string> docs;
  for (int i = 0; i < 6; ++i) {
    std::string doc = "<db>";
    for (int j = 0; j < 3; ++j) {
      doc += "<person><name>p" + std::to_string(i) + "_" + std::to_string(j) +
             "</name><age>" + std::to_string(20 + i + j) + "</age></person>";
    }
    doc += "</db>";
    docs.push_back(doc);
  }
  Fleet fleet = InstallFleet(
      &scoped.fs(),
      "<db><person><name>Alice</name><age>30</age></person>"
      "<person><name>Bob</name><age>41</age></person></db>",
      {{"people", "Alice,30\nBob,41\n"}}, docs);

  std::map<std::string, std::string> want = SequentialReference(fleet);
  ASSERT_EQ(want.count("people"), 1u);
  EXPECT_NE(want["people"].find("p5_2"), std::string::npos);

  FsProgramCache cache("/cache");

  // Cold cache, sequential (no pool).
  BatchRun cold = RunBatchInto(fleet, "/out-cold", &cache, nullptr);
  EXPECT_TRUE(cold.report.complete());
  EXPECT_FALSE(cold.report.learn.tables[0].cache_hit);
  ExpectSameOutputs(want, cold.outputs, "cold/1-thread");
  EXPECT_GE(cache.stores(), 1u);

  // Warm cache, sequential: byte-identical AND zero synthesis.
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  BatchRun warm = RunBatchInto(fleet, "/out-warm", &cache, nullptr);
  obs::MetricsSnapshot delta = obs::SnapshotDelta(before);
  EXPECT_TRUE(warm.report.complete());
  EXPECT_TRUE(warm.report.learn.tables[0].cache_hit);
  ExpectSameOutputs(want, warm.outputs, "warm/1-thread");
  EXPECT_EQ(delta.count("synth/phase2/candidates_enumerated"), 0u)
      << "warm-cache batch must perform zero synthesis";
  EXPECT_GE(cache.hits(), 1u);

  // Warm cache, 8 threads: completion order scrambles, bytes must not.
  common::ThreadPool pool(8);
  BatchRun par = RunBatchInto(fleet, "/out-par", &cache, &pool);
  EXPECT_TRUE(par.report.complete());
  ExpectSameOutputs(want, par.outputs, "warm/8-threads");

  // Cold, 8 threads (fresh cache directory).
  FsProgramCache cache2("/cache2");
  BatchRun par_cold = RunBatchInto(fleet, "/out-par-cold", &cache2, &pool);
  EXPECT_TRUE(par_cold.report.complete());
  ExpectSameOutputs(want, par_cold.outputs, "cold/8-threads");
}

TEST(PipelineEquivalence, GeneratedFleetsProperty) {
  // Property sweep: random documents (src/testing generators), example
  // table = evaluation of a random program on the example, fleet =
  // enlarged copies. Every synthesizable seed must be batch ≡ sequential
  // at 1 and 8 threads, cold and warm.
  int verified = 0;
  for (std::uint64_t seed = 1; seed <= 8 && verified < 3; ++seed) {
    ScopedMemoryFs scoped;
    testing::Rng rng(seed);
    testing::DocGenOptions dopts;
    dopts.max_nodes = 18;
    dopts.xml_shape = true;
    dopts.tricky_data = false;  // CSV round-trip keeps to clean cells
    hdt::Hdt example = testing::GenerateDocument(&rng, dopts);
    testing::ProgGenOptions popts;
    popts.max_columns = 2;
    popts.max_atoms = 1;
    dsl::Program prog = testing::GenerateProgram(&rng, example, popts);
    auto table = dsl::EvalProgram(example, prog);
    if (!table.ok() || table->NumRows() == 0) continue;
    hdt::Table expected = *table;
    expected.Dedup();

    auto example_text = xml::WriteXml(example);
    ASSERT_TRUE(example_text.ok());
    std::vector<std::string> docs;
    for (int d = 0; d < 4; ++d) {
      hdt::Hdt grown = testing::EnlargeDocument(&rng, example, 2, dopts);
      auto text = xml::WriteXml(grown);
      ASSERT_TRUE(text.ok());
      docs.push_back(*text);
    }
    Fleet fleet =
        InstallFleet(&scoped.fs(), *example_text,
                     {{"t0", WriteCsv(expected.rows())}}, docs);

    // Only fully-learnable fleets count for the property (a random table
    // need not be synthesizable; that is the synthesizer's concern, not
    // the pipeline's).
    std::map<std::string, std::string> want = SequentialReference(fleet);
    if (want.count("t0") == 0) continue;

    FsProgramCache cache("/cache-" + std::to_string(seed));
    BatchRun cold = RunBatchInto(fleet, "/o1", &cache, nullptr);
    if (!cold.report.learn.complete()) continue;
    ExpectSameOutputs(want, cold.outputs,
                      ("seed " + std::to_string(seed) + " cold").c_str());

    common::ThreadPool pool(8);
    BatchRun warm_par = RunBatchInto(fleet, "/o2", &cache, &pool);
    EXPECT_TRUE(warm_par.report.learn.tables[0].cache_hit)
        << "seed " << seed;
    ExpectSameOutputs(want, warm_par.outputs,
                      ("seed " + std::to_string(seed) + " warm/8t").c_str());
    ++verified;
  }
  EXPECT_GE(verified, 1) << "no generated fleet was synthesizable";
}

}  // namespace
}  // namespace mitra::pipeline
