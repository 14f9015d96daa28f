/// Process-isolation torture tests (ISSUE 10): a real `mitra` binary is
/// spawned in batch-worker mode (MITRA_CLI_BIN, wired by CMake), poison
/// documents crash/hang/bloat real subprocesses, and the supervisor must
/// contain every fault — quarantine with diagnostics, fresh-worker retry,
/// slot respawn — while healthy output stays byte-identical to the
/// in-process mode at any worker count.
///
/// These tests use the real disk (mkdtemp fleets): workers are separate
/// processes and cannot see an in-memory FileSystem shim. The supervisor
/// crash test installs a CrashPointFileSystem in THIS process only, so
/// exactly the supervisor's journal/merge writes crash-point while
/// workers keep their real filesystem.

#include <signal.h>
#include <stdlib.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/fs.h"
#include "common/status.h"
#include "db/migrator.h"
#include "db/schema.h"
#include "dsl/parser.h"
#include "gtest/gtest.h"
#include "obs/obs.h"
#include "pipeline/batch.h"
#include "pipeline/worker.h"
#include "pipeline/worker_pool.h"
#include "test_util.h"
#include "testing/crash_point.h"
#include "workload/datasets.h"

#if defined(__SANITIZE_ADDRESS__)
#define MITRA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MITRA_ASAN 1
#endif
#endif

namespace mitra {
namespace {

std::string MakeTempDir() {
  char tmpl[] = "/tmp/mitra-iso-XXXXXX";
  char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  ASSERT_TRUE(common::RealFileSystem()->WriteFileAtomic(path, content).ok())
      << path;
}

std::string ReadFileOrDie(const std::string& path) {
  auto r = common::RealFileSystem()->ReadFile(path);
  EXPECT_TRUE(r.ok()) << path << ": " << r.status().ToString();
  return r.ok() ? *r : std::string();
}

/// Builds an on-disk fleet: one example (two persons), `ndocs` healthy
/// documents, a manifest. Documents are named d<N>.xml so hard-fault
/// directives can target one by substring.
std::string BuildFleet(const std::string& root, int ndocs) {
  WriteFileOrDie(root + "/example.xml",
                 "<db><person><name>Alice</name><age>30</age></person>"
                 "<person><name>Bob</name><age>41</age></person></db>");
  WriteFileOrDie(root + "/people.csv", "Alice,30\nBob,41\n");
  for (int d = 0; d < ndocs; ++d) {
    WriteFileOrDie(root + "/d" + std::to_string(d) + ".xml",
                   "<db><person><name>n" + std::to_string(d) +
                       "</name><age>" + std::to_string(20 + d) +
                       "</age></person><person><name>m" + std::to_string(d) +
                       "</name><age>" + std::to_string(30 + d) +
                       "</age></person></db>");
  }
  std::string docs;
  for (int d = 0; d < ndocs; ++d) {
    if (d > 0) docs += ",";
    docs += "\"d" + std::to_string(d) + ".xml\"";
  }
  const std::string manifest = root + "/batch.json";
  WriteFileOrDie(manifest,
                 "{\"example\": \"example.xml\","
                 "\"tables\": {\"people\": \"people.csv\"},"
                 "\"documents\": [" + docs + "]}");
  return manifest;
}

pipeline::BatchOptions ProcessModeOptions(const std::string& outdir,
                                          int workers) {
  pipeline::BatchOptions opts;
  opts.outdir = outdir;
  opts.isolation = pipeline::IsolationMode::kProcess;
  // The test binary has no batch-worker mode; always point the pool at
  // the real CLI.
  opts.worker_pool.worker_exe = MITRA_CLI_BIN;
  opts.worker_pool.workers = workers;
  return opts;
}

Result<pipeline::BatchReport> RunFleet(const std::string& manifest_path,
                                       const pipeline::BatchOptions& opts) {
  auto manifest = pipeline::ParseManifest(manifest_path);
  if (!manifest.ok()) return manifest.status();
  return pipeline::RunBatch(*manifest, opts);
}

std::uint64_t Counter(const std::map<std::string, std::uint64_t>& m,
                      const std::string& name) {
  auto it = m.find(name);
  return it == m.end() ? 0 : it->second;
}

TEST(PipelineIsolation, HealthyFleetByteIdenticalAcrossModesAndWorkerCounts) {
  const std::string root = MakeTempDir();
  const std::string manifest = BuildFleet(root, 6);

  pipeline::BatchOptions none;
  none.outdir = root + "/out-none";
  auto base = RunFleet(manifest, none);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(base->complete());
  const std::string expected = ReadFileOrDie(none.outdir + "/people.csv");
  ASSERT_FALSE(expected.empty());
  // In-process documents share one process: no per-document peak RSS.
  for (const pipeline::DocReport& dr : base->docs) {
    EXPECT_EQ(dr.peak_rss_kb, 0u);
  }
  EXPECT_EQ(base->ToJson().find("\"peak_rss_kb\""), std::string::npos);

  for (int workers : {1, 8}) {
    const std::string outdir = root + "/out-w" + std::to_string(workers);
    auto report = RunFleet(manifest, ProcessModeOptions(outdir, workers));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->complete());
    EXPECT_EQ(ReadFileOrDie(outdir + "/people.csv"), expected)
        << "workers=" << workers;
    for (const pipeline::DocReport& dr : report->docs) {
      EXPECT_EQ(dr.outcome, pipeline::DocOutcome::kDone);
      EXPECT_TRUE(dr.hard_faults.empty());
      // Worker rusage flows back into the report.
      EXPECT_GT(dr.peak_rss_kb, 0u);
      EXPECT_GT(dr.seconds, 0.0);
    }
    EXPECT_NE(report->ToJson().find("\"peak_rss_kb\":"), std::string::npos);
  }
}

TEST(PipelineIsolation, AbortDocQuarantinedWithDiagnosticsAndRetriedOnce) {
  const std::string root = MakeTempDir();
  const std::string manifest = BuildFleet(root, 6);

  pipeline::BatchOptions opts = ProcessModeOptions(root + "/out", 2);
  opts.worker_pool.env = {"MITRA_HARD_FAULT=abort=d3.xml"};
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  auto report = RunFleet(manifest, opts);
  std::map<std::string, std::uint64_t> delta = obs::SnapshotDelta(before);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const pipeline::DocReport& poison = report->docs[3];
  EXPECT_EQ(poison.outcome, pipeline::DocOutcome::kQuarantined);
  EXPECT_NE(poison.status.message().find("hard fault"), std::string::npos)
      << poison.status.ToString();
  // One fresh-worker retry, then quarantine: exactly two worker deaths.
  ASSERT_EQ(poison.hard_faults.size(), 2u);
  EXPECT_TRUE(poison.hard_faults[0].retried);
  EXPECT_FALSE(poison.hard_faults[1].retried);
  for (const pipeline::HardFaultInfo& f : poison.hard_faults) {
    EXPECT_EQ(f.kind, "signal");
    EXPECT_EQ(f.signal, SIGABRT);
  }
  for (const pipeline::DocReport& dr : report->docs) {
    if (dr.index == 3) continue;
    EXPECT_EQ(dr.outcome, pipeline::DocOutcome::kDone) << dr.index;
  }

  // The quarantine report carries the hard_fault diagnostics block.
  const std::string qjson = ReadFileOrDie(root + "/out/quarantine/doc.3.json");
  EXPECT_NE(qjson.find("\"hard_fault\":"), std::string::npos) << qjson;
  EXPECT_NE(qjson.find("\"signal\":6"), std::string::npos) << qjson;
  EXPECT_NE(qjson.find("\"signal_name\":\"SIGABRT\""), std::string::npos);
  EXPECT_NE(qjson.find("\"worker_deaths\":2"), std::string::npos);

  // Counter proofs: 2 initial spawns, both deaths attributed to the doc,
  // and at least one respawn (the retry needs a fresh worker).
  EXPECT_EQ(Counter(delta, "pipeline/worker/hard_faults"), 2u);
  EXPECT_GE(Counter(delta, "pipeline/worker/spawned"), 3u);
  EXPECT_GE(Counter(delta, "pipeline/worker/respawned"), 1u);
  EXPECT_EQ(Counter(delta, "pipeline/worker/killed_timeout"), 0u);

  // The healthy documents still merged deterministically: the final CSV
  // is the shard concatenation of every completed document in fleet
  // order (the determinism contract, minus the quarantined document).
  std::string expected;
  for (const pipeline::DocReport& dr : report->docs) {
    if (dr.outcome != pipeline::DocOutcome::kDone) continue;
    expected += ReadFileOrDie(
        pipeline::ShardPath(root + "/out", "people", dr.index));
  }
  EXPECT_EQ(ReadFileOrDie(root + "/out/people.csv"), expected);
}

TEST(PipelineIsolation, SpinDocKilledByWallClockDeadline) {
  const std::string root = MakeTempDir();
  const std::string manifest = BuildFleet(root, 4);

  pipeline::BatchOptions opts = ProcessModeOptions(root + "/out", 2);
  opts.worker_pool.env = {"MITRA_HARD_FAULT=spin=d1.xml"};
  opts.worker_pool.doc_timeout_seconds = 2.0;
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  auto report = RunFleet(manifest, opts);
  std::map<std::string, std::uint64_t> delta = obs::SnapshotDelta(before);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const pipeline::DocReport& poison = report->docs[1];
  EXPECT_EQ(poison.outcome, pipeline::DocOutcome::kQuarantined);
  ASSERT_EQ(poison.hard_faults.size(), 2u);
  for (const pipeline::HardFaultInfo& f : poison.hard_faults) {
    EXPECT_EQ(f.kind, "timeout");
    EXPECT_EQ(f.signal, SIGKILL);  // the supervisor's kill, not a crash
  }
  EXPECT_EQ(Counter(delta, "pipeline/worker/killed_timeout"), 2u);
  EXPECT_EQ(report->docs_done(), 3u);
}

TEST(PipelineIsolation, SpinDocKilledByHeartbeatSilence) {
  const std::string root = MakeTempDir();
  const std::string manifest = BuildFleet(root, 3);

  pipeline::BatchOptions opts = ProcessModeOptions(root + "/out", 1);
  opts.worker_pool.env = {"MITRA_HARD_FAULT=spin=d2.xml"};
  // No wall-clock deadline: only heartbeat silence can catch the hang.
  opts.worker_pool.doc_timeout_seconds = 0.0;
  opts.worker_pool.heartbeat_timeout_seconds = 1.5;
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  auto report = RunFleet(manifest, opts);
  std::map<std::string, std::uint64_t> delta = obs::SnapshotDelta(before);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const pipeline::DocReport& poison = report->docs[2];
  EXPECT_EQ(poison.outcome, pipeline::DocOutcome::kQuarantined);
  ASSERT_EQ(poison.hard_faults.size(), 2u);
  EXPECT_EQ(poison.hard_faults[1].kind, "heartbeat");
  EXPECT_GE(poison.hard_faults[1].seconds_since_heartbeat, 1.5);
  EXPECT_EQ(Counter(delta, "pipeline/worker/killed_timeout"), 2u);
  EXPECT_EQ(report->docs_done(), 2u);
}

TEST(PipelineIsolation, SpinDocKilledByCpuRlimit) {
  const std::string root = MakeTempDir();
  const std::string manifest = BuildFleet(root, 3);

  pipeline::BatchOptions opts = ProcessModeOptions(root + "/out", 1);
  opts.worker_pool.env = {"MITRA_HARD_FAULT=spin=d1.xml"};
  opts.worker_pool.cpu_limit_seconds = 1;
  // Generous wall-clock backstop; RLIMIT_CPU must fire first.
  opts.worker_pool.doc_timeout_seconds = 30.0;
  opts.worker_pool.heartbeat_timeout_seconds = 30.0;
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  auto report = RunFleet(manifest, opts);
  std::map<std::string, std::uint64_t> delta = obs::SnapshotDelta(before);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const pipeline::DocReport& poison = report->docs[1];
  EXPECT_EQ(poison.outcome, pipeline::DocOutcome::kQuarantined);
  ASSERT_EQ(poison.hard_faults.size(), 2u);
  for (const pipeline::HardFaultInfo& f : poison.hard_faults) {
    EXPECT_EQ(f.kind, "rlimit_cpu");
    EXPECT_EQ(f.signal, SIGXCPU);
  }
  EXPECT_EQ(Counter(delta, "pipeline/worker/killed_rlimit"), 2u);
  EXPECT_EQ(report->docs_done(), 2u);
}

TEST(PipelineIsolation, LeakDocKilledByMemoryRlimit) {
#ifdef MITRA_ASAN
  GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan shadow memory";
#else
  const std::string root = MakeTempDir();
  const std::string manifest = BuildFleet(root, 3);

  pipeline::BatchOptions opts = ProcessModeOptions(root + "/out", 1);
  opts.worker_pool.env = {"MITRA_HARD_FAULT=leak=d0.xml"};
  opts.worker_pool.memory_limit_mb = 256;
  auto report = RunFleet(manifest, opts);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // bad_alloc -> std::terminate -> SIGABRT inside the worker; the
  // supervisor and the other documents are untouched.
  const pipeline::DocReport& poison = report->docs[0];
  EXPECT_EQ(poison.outcome, pipeline::DocOutcome::kQuarantined);
  ASSERT_EQ(poison.hard_faults.size(), 2u);
  EXPECT_EQ(poison.hard_faults[1].signal, SIGABRT);
  EXPECT_EQ(report->docs_done(), 2u);
#endif
}

TEST(PipelineIsolation, UnusableWorkerExecutableFailsCleanly) {
  const std::string root = MakeTempDir();
  const std::string manifest = BuildFleet(root, 2);

  pipeline::BatchOptions opts = ProcessModeOptions(root + "/out", 2);
  opts.worker_pool.worker_exe = "/bin/false";  // exits before ready
  auto report = RunFleet(manifest, opts);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("before becoming ready"),
            std::string::npos)
      << report.status().ToString();
}

TEST(PipelineIsolation, ProtocolGarbageWorkerIsKilledNotTrusted) {
  const std::string root = MakeTempDir();
  const std::string manifest = BuildFleet(root, 2);

  pipeline::BatchOptions opts = ProcessModeOptions(root + "/out", 1);
  // /bin/cat echoes the init frame back: a syntactically valid frame of a
  // type no worker may send before 'Y'. The supervisor must classify the
  // protocol violation and give up cleanly, never trust the stream.
  opts.worker_pool.worker_exe = "/bin/cat";
  auto report = RunFleet(manifest, opts);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("before becoming ready"),
            std::string::npos)
      << report.status().ToString();
}

TEST(PipelineIsolation, ResumeSkipsHardFaultQuarantineAndCompletedDocs) {
  const std::string root = MakeTempDir();
  const std::string manifest = BuildFleet(root, 4);

  pipeline::BatchOptions opts = ProcessModeOptions(root + "/out", 2);
  opts.journal = root + "/out/batch.journal";
  opts.worker_pool.env = {"MITRA_HARD_FAULT=abort=d2.xml"};
  auto first = RunFleet(manifest, opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->docs_quarantined(), 1u);

  // Re-run with the fault cleared: the journal must keep the poison doc
  // quarantined (no re-burn) and resume the completed ones.
  opts.worker_pool.env.clear();
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  auto second = RunFleet(manifest, opts);
  std::map<std::string, std::uint64_t> delta = obs::SnapshotDelta(before);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->docs_resumed(), 3u);
  EXPECT_EQ(second->docs_quarantined(), 1u);
  // Nothing executed, so no workers were ever spawned.
  EXPECT_EQ(Counter(delta, "pipeline/worker/spawned"), 0u);

  // And with retry_quarantined the poison doc runs (now healthy) to done.
  opts.retry_quarantined = true;
  auto third = RunFleet(manifest, opts);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_TRUE(third->complete());
}

/// Crash-points the SUPERVISOR's filesystem (journal checkpoints, merge
/// writes) while workers keep the real disk, then reboots and resumes:
/// the fleet must complete with output byte-identical to a never-crashed
/// run, at every crash point.
TEST(PipelineIsolation, SupervisorCrashPointSweepResumesCleanly) {
  const std::string root = MakeTempDir();
  const std::string manifest = BuildFleet(root, 4);

  // Baseline, no crashes.
  pipeline::BatchOptions base = ProcessModeOptions(root + "/out-base", 2);
  base.journal = root + "/out-base/batch.journal";
  auto baseline = RunFleet(manifest, base);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_TRUE(baseline->complete());
  const std::string expected =
      ReadFileOrDie(root + "/out-base/people.csv");

  // Count supervisor-side mutations with a never-crashing wrapper.
  std::uint64_t total;
  {
    test::CrashPointFileSystem counter(common::RealFileSystem(), 0);
    common::SetFileSystemForTest(&counter);
    pipeline::BatchOptions opts = ProcessModeOptions(root + "/out-count", 2);
    opts.journal = root + "/out-count/batch.journal";
    auto r = RunFleet(manifest, opts);
    common::SetFileSystemForTest(nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    total = counter.mutations();
  }
  ASSERT_GT(total, 0u);

  // Sweep a handful of crash points across the run: first mutations (the
  // initial journal write / first checkpoints), the middle, and the last
  // (the final merge write).
  std::vector<std::uint64_t> points = {1, 2, 3, total / 2, total};
  for (std::uint64_t k : points) {
    if (k == 0 || k > total) continue;
    const std::string outdir =
        root + "/out-k" + std::to_string(static_cast<unsigned long long>(k));
    pipeline::BatchOptions opts = ProcessModeOptions(outdir, 2);
    opts.journal = outdir + "/batch.journal";
    {
      test::CrashPointFileSystem doomed(common::RealFileSystem(), k);
      common::SetFileSystemForTest(&doomed);
      // The "crashing" run: may return an error or a report with journal
      // failures — either is fine, the contract is about the reboot.
      auto crashed = RunFleet(manifest, opts);
      (void)crashed;
      common::SetFileSystemForTest(nullptr);
    }
    // Reboot: same journal, real filesystem. Must complete and match.
    auto resumed = RunFleet(manifest, opts);
    ASSERT_TRUE(resumed.ok()) << "k=" << k << ": "
                              << resumed.status().ToString();
    EXPECT_TRUE(resumed->complete()) << "k=" << k;
    EXPECT_EQ(ReadFileOrDie(outdir + "/people.csv"), expected) << "k=" << k;
  }
}

// ---------------------------------------------------------------------------
// The worker frame codecs, without a subprocess.

TEST(WorkerCodec, FramesRoundTrip) {
  pipeline::WorkerAssign assign{42, std::string("docs/d\0\n7.xml", 14)};
  auto a = pipeline::DecodeWorkerAssign(pipeline::EncodeWorkerAssign(assign));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->doc_index, 42u);
  EXPECT_EQ(a->path, assign.path);

  EXPECT_EQ(pipeline::DecodeHeartbeat(pipeline::EncodeHeartbeat("doc/parse")),
            "doc/parse");

  pipeline::WorkerResult result;
  result.doc_index = 7;
  pipeline::FleetDocOutcome& out = result.outcome;
  out.status = Status::ResourceExhausted("row budget exceeded");
  out.rows = 12;
  out.shard_crc = 0xdeadbeef;
  out.attempts = 3;
  out.trail = {"attempt 1: Unavailable: eagain", ""};
  out.peak_rss_kb = 4096;
  out.seconds = 0.5;
  auto r = pipeline::DecodeWorkerResult(pipeline::EncodeWorkerResult(result));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->doc_index, 7u);
  EXPECT_EQ(r->outcome.status.ToString(), out.status.ToString());
  EXPECT_EQ(r->outcome.rows, 12u);
  EXPECT_EQ(r->outcome.shard_crc, 0xdeadbeefu);
  EXPECT_EQ(r->outcome.attempts, 3);
  EXPECT_EQ(r->outcome.trail, out.trail);
  EXPECT_EQ(r->outcome.peak_rss_kb, 4096u);
  EXPECT_EQ(r->outcome.seconds, 0.5);

  pipeline::WorkerInit init;
  init.outdir = "/out";
  init.table_limits.max_rows = 99;
  init.retry.max_attempts = 4;
  init.retry.seed = 11;
  init.heartbeat_interval_seconds = 0.125;
  init.migration.schema.tables.push_back(
      db::TableDef{"people", {{"name", db::ColumnKind::kData, ""}}});
  auto program = dsl::ParseProgram(
      "λτ. filter((λs.pchildren(children(s, person), name, 0)){root(τ)}, "
      "λt. true)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  init.migration.programs["people"] = *program;
  const std::string payload = pipeline::EncodeWorkerInit(init);
  auto i = pipeline::DecodeWorkerInit(payload);
  ASSERT_TRUE(i.ok()) << i.status().ToString();
  EXPECT_EQ(i->outdir, "/out");
  EXPECT_EQ(i->table_limits.max_rows, 99u);
  EXPECT_EQ(i->retry.max_attempts, 4);
  EXPECT_EQ(i->retry.seed, 11u);
  EXPECT_EQ(i->heartbeat_interval_seconds, 0.125);
  EXPECT_EQ(pipeline::EncodeWorkerInit(*i), payload);
}

TEST(WorkerCodec, InitWithUnsafeTableNameIsRejected) {
  // A table name is joined into the worker's shard paths, so a decoded
  // schema must hold plain path components only.
  pipeline::WorkerInit init;
  init.outdir = "/out";
  init.migration.schema.tables.push_back(
      db::TableDef{"../x", {{"name", db::ColumnKind::kData, ""}}});
  auto program = dsl::ParseProgram(
      "λτ. filter((λs.pchildren(children(s, person), name, 0)){root(τ)}, "
      "λt. true)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  init.migration.programs["../x"] = *program;
  auto decoded =
      pipeline::DecodeWorkerInit(pipeline::EncodeWorkerInit(init));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
      << decoded.status().ToString();
}

TEST(WorkerCodec, EveryStrictPrefixIsRejected) {
  const std::string assign =
      pipeline::EncodeWorkerAssign(pipeline::WorkerAssign{3, "d3.xml"});
  for (size_t n = 0; n < assign.size(); ++n) {
    EXPECT_FALSE(pipeline::DecodeWorkerAssign(assign.substr(0, n)).ok()) << n;
  }
  // A malformed heartbeat still counts as one, with no phase.
  const std::string heartbeat = pipeline::EncodeHeartbeat("doc/execute");
  for (size_t n = 0; n < heartbeat.size(); ++n) {
    EXPECT_EQ(pipeline::DecodeHeartbeat(heartbeat.substr(0, n)), "") << n;
  }
  pipeline::WorkerResult result;
  result.outcome.status = Status::Internal("boom");
  result.outcome.trail = {"a", "b"};
  const std::string encoded = pipeline::EncodeWorkerResult(result);
  for (size_t n = 0; n < encoded.size(); ++n) {
    EXPECT_FALSE(pipeline::DecodeWorkerResult(encoded.substr(0, n)).ok())
        << n;
  }
}

TEST(WorkerCodec, ResultStatusCodeOutOfRangeIsRejected) {
  pipeline::WorkerResult result;
  result.outcome.status = Status::Internal("boom");
  std::string encoded = pipeline::EncodeWorkerResult(result);
  // The code is the i64 after the u64 document index.
  encoded[8] = 99;
  for (size_t b = 9; b < 16; ++b) encoded[b] = 0;
  auto decoded = pipeline::DecodeWorkerResult(encoded);
  EXPECT_FALSE(decoded.ok()) << decoded->outcome.status.ToString();
  encoded[8] = static_cast<char>(0xff);  // with bytes 9..15 of -1: code -1
  for (size_t b = 9; b < 16; ++b) encoded[b] = static_cast<char>(0xff);
  EXPECT_FALSE(pipeline::DecodeWorkerResult(encoded).ok());
}

// ---------------------------------------------------------------------------
// The learned migration in the init frame: the four Table 2 schemas with
// their primary- and foreign-key columns.

hdt::Hdt ParseDatasetDoc(const workload::DatasetSpec& spec,
                         const std::string& text) {
  return spec.format == workload::DocFormat::kXml
             ? test::ParseXmlOrDie(text)
             : test::ParseJsonOrDie(text);
}

struct LearnedDataset {
  const workload::DatasetSpec* spec;
  std::unique_ptr<db::Migrator> migrator;
};

/// DBLP, IMDB, MONDIAL and YELP, each learned once per process.
const std::vector<LearnedDataset>& Table2() {
  static const std::vector<LearnedDataset>* learned = [] {
    auto* out = new std::vector<LearnedDataset>;
    for (const workload::DatasetSpec* spec : workload::AllDatasets()) {
      hdt::Hdt example = ParseDatasetDoc(*spec, spec->example_document);
      std::map<std::string, hdt::Table> examples;
      for (const auto& [name, rows] : spec->example_tables) {
        examples[name] = test::MakeTable(rows);
      }
      auto migrator = std::make_unique<db::Migrator>(spec->schema);
      Status st = migrator->Learn(example, examples);
      EXPECT_TRUE(st.ok()) << spec->name << ": " << st.ToString();
      out->push_back(LearnedDataset{spec, std::move(migrator)});
    }
    return out;
  }();
  return *learned;
}

pipeline::WorkerInit InitFor(const db::Migrator& migrator,
                             const std::string& outdir) {
  pipeline::WorkerInit init;
  init.outdir = outdir;
  init.migration = migrator.learned();
  return init;
}

std::map<std::string, std::string> CsvByTable(const db::Database& db) {
  std::map<std::string, std::string> out;
  for (const auto& [name, table] : db.tables) {
    out[name] = WriteCsv(table.rows());
  }
  return out;
}

TEST(LearnedMigrationFrame, Table2RoundTripExecutesByteIdentical) {
  for (const LearnedDataset& d : Table2()) {
    const std::string payload =
        pipeline::EncodeWorkerInit(InitFor(*d.migrator, "/out"));
    auto decoded = pipeline::DecodeWorkerInit(payload);
    ASSERT_TRUE(decoded.ok()) << d.spec->name << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(pipeline::EncodeWorkerInit(*decoded), payload) << d.spec->name;
    ASSERT_FALSE(d.migrator->fk_plans().empty()) << d.spec->name;
    db::Migrator copy(std::move(decoded->migration));

    hdt::Hdt doc = ParseDatasetDoc(*d.spec, d.spec->generate(30, 7));
    auto want = d.migrator->Execute(doc);
    auto got = copy.Execute(doc);
    ASSERT_TRUE(want.ok()) << d.spec->name << ": " << want.status().ToString();
    ASSERT_TRUE(got.ok()) << d.spec->name << ": " << got.status().ToString();
    EXPECT_EQ(CsvByTable(*got), CsvByTable(*want)) << d.spec->name;
  }
}

TEST(LearnedMigrationFrame, EveryStrictPrefixOfTable2InitIsRejected) {
  for (const LearnedDataset& d : Table2()) {
    const std::string payload =
        pipeline::EncodeWorkerInit(InitFor(*d.migrator, "/out"));
    for (size_t n = 0; n < payload.size(); ++n) {
      ASSERT_FALSE(pipeline::DecodeWorkerInit(payload.substr(0, n)).ok())
          << d.spec->name << " prefix " << n << " of " << payload.size();
    }
  }
}

TEST(LearnedMigrationFrame, InvalidMigrationsAreRejected) {
  const LearnedDataset& dblp = Table2().front();
  const db::LearnedMigration& good = dblp.migrator->learned();
  ASSERT_TRUE(good.Validate().ok());
  // The first table with a foreign key, and that key's column.
  std::string table;
  size_t column = 0;
  for (const auto& [name, plans] : good.fk_plans) {
    table = name;
    column = plans.begin()->first;
    break;
  }
  ASSERT_FALSE(table.empty());
  const std::string ref =
      good.schema.FindTable(table)->columns[column].references;

  auto expect_rejected = [&](const char* what,
                             const std::function<void(db::LearnedMigration*)>&
                                 mutate) {
    db::LearnedMigration bad = good;
    mutate(&bad);
    EXPECT_FALSE(bad.Validate().ok()) << what;
    auto decoded =
        pipeline::DecodeWorkerInit(pipeline::EncodeWorkerInit(
            pipeline::WorkerInit{"/out", {}, {}, 0.25, std::move(bad)}));
    EXPECT_FALSE(decoded.ok()) << what;
  };
  expect_rejected("program for an unknown table", [](db::LearnedMigration* m) {
    m->programs["no-such-table"] = m->programs.begin()->second;
  });
  expect_rejected("program arity", [&](db::LearnedMigration* m) {
    m->programs[table].columns.push_back(m->programs[table].columns[0]);
  });
  expect_rejected("foreign key without a plan", [&](db::LearnedMigration* m) {
    m->fk_plans[table].erase(column);
  });
  expect_rejected("source column out of range", [&](db::LearnedMigration* m) {
    m->fk_plans[table][column].source_cols[0] = 1000;
  });
  expect_rejected("negative source column", [&](db::LearnedMigration* m) {
    m->fk_plans[table][column].source_cols[0] = -1;
  });
  expect_rejected("plan length", [&](db::LearnedMigration* m) {
    db::ForeignKeyPlan& plan = m->fk_plans[table][column];
    plan.source_cols.push_back(plan.source_cols[0]);
    plan.extractors.push_back(plan.extractors[0]);
  });
  expect_rejected("referenced table not live", [&](db::LearnedMigration* m) {
    m->programs.erase(ref);
    m->fk_plans.erase(ref);
  });
  expect_rejected("invalid schema", [](db::LearnedMigration* m) {
    m->schema.tables.push_back(m->schema.tables.front());
  });

  // A column kind outside the enum, patched into the wire bytes: encoding
  // the first column with another kind locates its kind byte.
  pipeline::WorkerInit init = InitFor(*dblp.migrator, "/out");
  std::string payload = pipeline::EncodeWorkerInit(init);
  db::ColumnDef& col = init.migration.schema.tables.front().columns.front();
  col.kind = col.kind == db::ColumnKind::kData ? db::ColumnKind::kPrimaryKey
                                               : db::ColumnKind::kData;
  const std::string flipped = pipeline::EncodeWorkerInit(init);
  ASSERT_EQ(flipped.size(), payload.size());
  size_t at = 0;
  while (at < payload.size() && payload[at] == flipped[at]) ++at;
  ASSERT_LT(at, payload.size());
  payload[at] = 7;
  auto decoded = pipeline::DecodeWorkerInit(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("column kind 7"),
            std::string::npos)
      << decoded.status().ToString();
}

/// Reads every shard of `tables` for documents [0, ndocs) under `outdir`.
std::map<std::string, std::string> ReadShards(
    const std::string& outdir, const std::vector<std::string>& tables,
    size_t ndocs) {
  std::map<std::string, std::string> out;
  for (const std::string& table : tables) {
    for (size_t d = 0; d < ndocs; ++d) {
      out[table + "." + std::to_string(d)] =
          ReadFileOrDie(pipeline::ShardPath(outdir, table, d));
    }
  }
  return out;
}

TEST(LearnedMigrationFrame, Table2ThroughWorkerProcessesMatchesInProcess) {
  const std::string root = MakeTempDir();
  for (const LearnedDataset& d : Table2()) {
    const std::string dir = root + "/" + d.spec->name;
    const char* ext =
        d.spec->format == workload::DocFormat::kXml ? ".xml" : ".json";
    std::vector<std::string> documents;
    for (uint32_t seed : {3u, 4u}) {
      documents.push_back(dir + "/doc" + std::to_string(seed) + ext);
      WriteFileOrDie(documents.back(), d.spec->generate(20, seed));
    }
    std::vector<std::string> tables;
    for (const db::TableDef& t : d.spec->schema.tables) {
      tables.push_back(t.name);
    }

    pipeline::WorkerPoolOptions pool;
    pool.worker_exe = MITRA_CLI_BIN;
    pool.workers = 2;
    std::map<size_t, pipeline::FleetDocOutcome> outcomes;
    Status st = pipeline::RunWorkerFleet(
        documents, {0, 1}, InitFor(*d.migrator, dir + "/workers"), pool,
        [&](size_t doc, pipeline::FleetDocOutcome out) {
          outcomes[doc] = std::move(out);
        });
    ASSERT_TRUE(st.ok()) << d.spec->name << ": " << st.ToString();
    ASSERT_EQ(outcomes.size(), 2u) << d.spec->name;

    pipeline::FleetExecContext ctx;
    ctx.migrator = d.migrator.get();
    ctx.outdir = dir + "/in-process";
    for (size_t doc = 0; doc < documents.size(); ++doc) {
      ASSERT_TRUE(outcomes[doc].status.ok())
          << d.spec->name << " doc " << doc << ": "
          << outcomes[doc].status.ToString();
      pipeline::FleetDocOutcome res =
          pipeline::ExecuteFleetDocument(ctx, doc, documents[doc]);
      ASSERT_TRUE(res.status.ok()) << res.status.ToString();
      EXPECT_EQ(outcomes[doc].shard_crc, res.shard_crc) << d.spec->name;
      EXPECT_EQ(outcomes[doc].rows, res.rows) << d.spec->name;
    }
    const auto shards = ReadShards(ctx.outdir, tables, documents.size());
    EXPECT_EQ(ReadShards(dir + "/workers", tables, documents.size()), shards)
        << d.spec->name;

    // Keys are generated per fleet index, so the concatenated tables form
    // one database whose key constraints hold.
    db::Database merged;
    for (const std::string& table : tables) {
      std::vector<hdt::Row> rows;
      for (size_t doc = 0; doc < documents.size(); ++doc) {
        auto parsed = ParseCsv(shards.at(table + "." + std::to_string(doc)));
        ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
        rows.insert(rows.end(), parsed->begin(), parsed->end());
      }
      ASSERT_FALSE(rows.empty()) << d.spec->name << "." << table;
      auto t = hdt::Table::FromRows(std::move(rows));
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      merged.tables.emplace(table, std::move(*t));
    }
    Status constraints =
        db::CheckDatabaseConstraints(d.spec->schema, merged);
    EXPECT_TRUE(constraints.ok())
        << d.spec->name << ": " << constraints.ToString();
  }
}

}  // namespace
}  // namespace mitra
