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
#include <map>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/status.h"
#include "gtest/gtest.h"
#include "obs/obs.h"
#include "pipeline/batch.h"
#include "pipeline/worker.h"
#include "pipeline/worker_pool.h"
#include "testing/crash_point.h"

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

}  // namespace
}  // namespace mitra
