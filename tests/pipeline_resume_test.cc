#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/fs.h"
#include "obs/metrics.h"
#include "pipeline/batch.h"
#include "pipeline/program_cache.h"
#include "testing/crash_point.h"
#include "testing/fault_injection.h"

/// pipeline_resume_test (ISSUE 8): crash a batch mid-run with injected
/// I/O faults, restart it from the journal, and prove the final tables
/// have no duplicated or missing rows — byte-identical to an undisturbed
/// run — with completed documents not re-executed (counter-checked).

namespace mitra::pipeline {
namespace {

BatchManifest InstallFleet(common::FileSystem* fs, int num_docs) {
  BatchManifest m;
  EXPECT_TRUE(fs->WriteFile("/fleet/example.xml",
                            "<db><person><name>Alice</name><age>30</age>"
                            "</person><person><name>Bob</name><age>41</age>"
                            "</person></db>")
                  .ok());
  EXPECT_TRUE(fs->WriteFile("/fleet/people.csv", "Alice,30\nBob,41\n").ok());
  m.example_doc = "/fleet/example.xml";
  m.tables.emplace_back("people", "/fleet/people.csv");
  for (int d = 0; d < num_docs; ++d) {
    std::string path = "/fleet/docs/d" + std::to_string(d) + ".xml";
    std::string doc = "<db><person><name>n" + std::to_string(d) +
                      "</name><age>" + std::to_string(20 + d) +
                      "</age></person></db>";
    EXPECT_TRUE(fs->WriteFile(path, doc).ok());
    m.documents.push_back(path);
  }
  return m;
}

Result<std::string> FinalTable(const std::string& outdir) {
  return common::GetFileSystem()->ReadFile(outdir + "/people.csv");
}

TEST(PipelineResume, CrashMidBatchThenResumeNoDupesNoGaps) {
  common::MemoryFileSystem mem;
  common::SetFileSystemForTest(&mem);
  BatchManifest manifest = InstallFleet(&mem, 10);

  // Undisturbed reference run.
  {
    BatchOptions opts;
    opts.outdir = "/ref";
    opts.journal = "/ref/journal";
    auto ref = RunBatch(manifest, opts);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    ASSERT_TRUE(ref->complete());
  }
  auto want = FinalTable("/ref");
  ASSERT_TRUE(want.ok());
  ASSERT_FALSE(want->empty());

  // Faulted run: shard writes for document 6 fail with a PERMANENT fault
  // (kInternal — not retryable). The batch survives: the document is
  // quarantined, recorded in the journal, and reported under
  // `<outdir>/quarantine/`; the other nine complete.
  FsProgramCache cache("/cache");
  {
    test::FaultyFileSystem::Options fopts;
    // Every write touching a shard of document 6 fails — including the
    // `.mitra-tmp` staging file inside WriteFileAtomic.
    fopts.fail_substring = "/crash/shards/people.6";
    test::FaultyFileSystem faulty(&mem, fopts);
    common::SetFileSystemForTest(&faulty);
    BatchOptions opts;
    opts.outdir = "/crash";
    opts.journal = "/crash/journal";
    opts.cache = &cache;
    auto crashed = RunBatch(manifest, opts);
    common::SetFileSystemForTest(&mem);
    ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
    EXPECT_FALSE(crashed->complete());
    EXPECT_EQ(crashed->docs_failed(), 0u);
    EXPECT_EQ(crashed->docs_quarantined(), 1u);
    EXPECT_EQ(crashed->docs_done(), 9u);
    EXPECT_GE(faulty.failures(), 1u);
    const DocReport& poison = crashed->docs[6];
    EXPECT_EQ(poison.outcome, DocOutcome::kQuarantined);
    EXPECT_FALSE(poison.status.ok());
    // Permanent fault: one attempt, no retries burned.
    EXPECT_EQ(poison.attempts, 1);
  }

  // The quarantine report names the document and its failing Status.
  auto qreport = mem.ReadFile("/crash/quarantine/doc.6.json");
  ASSERT_TRUE(qreport.ok());
  EXPECT_NE(qreport->find("\"index\":6"), std::string::npos);
  EXPECT_NE(qreport->find("d6.xml"), std::string::npos);

  // The final merged table was still written, minus the quarantined
  // document: tolerant, but incomplete.
  auto partial = FinalTable("/crash");
  ASSERT_TRUE(partial.ok());
  EXPECT_EQ(partial->find("n6"), std::string::npos);

  // A plain re-run honors the journal's quarantine entry: the poison
  // document is skipped (zero budget re-burned), nothing re-executes.
  {
    obs::MetricsSnapshot before = obs::SnapshotMetrics();
    BatchOptions opts;
    opts.outdir = "/crash";
    opts.journal = "/crash/journal";
    opts.cache = &cache;
    auto rerun = RunBatch(manifest, opts);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    obs::MetricsSnapshot delta = obs::SnapshotDelta(before);
    EXPECT_FALSE(rerun->complete());
    EXPECT_EQ(rerun->docs_resumed(), 9u);
    EXPECT_EQ(rerun->docs_quarantined(), 1u);
    EXPECT_EQ(delta["pipeline/batch/docs_scheduled"], 0u);
    EXPECT_EQ(delta["pipeline/quarantine/resumed"], 1u);
  }

  // Resume with the fault gone and retry_quarantined set: only the
  // quarantined document re-executes, and the batch heals.
  {
    obs::MetricsSnapshot before = obs::SnapshotMetrics();
    BatchOptions opts;
    opts.outdir = "/crash";
    opts.journal = "/crash/journal";
    opts.cache = &cache;
    opts.retry_quarantined = true;
    auto resumed = RunBatch(manifest, opts);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    obs::MetricsSnapshot delta = obs::SnapshotDelta(before);
    EXPECT_TRUE(resumed->complete());
    EXPECT_EQ(resumed->docs_resumed(), 9u);
    EXPECT_EQ(resumed->docs_done(), 1u);
    EXPECT_EQ(resumed->docs_failed(), 0u);
    EXPECT_EQ(resumed->docs_quarantined(), 0u);
    // Counter proof that completed documents were not re-executed.
    EXPECT_EQ(delta["pipeline/batch/docs_scheduled"], 1u);
    EXPECT_EQ(delta["pipeline/batch/docs_resumed"], 9u);
    EXPECT_EQ(delta["pipeline/batch/docs_done"], 1u);
    EXPECT_EQ(delta["pipeline/quarantine/retried"], 1u);
    // Learning came from the cache, not synthesis.
    EXPECT_TRUE(resumed->learn.tables[0].cache_hit);
    EXPECT_EQ(delta.count("synth/phase2/candidates_enumerated"), 0u);
  }

  // No duplicated rows, no missing rows: byte-identical to the reference.
  auto healed = FinalTable("/crash");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, *want);

  common::SetFileSystemForTest(nullptr);
}

TEST(PipelineBatch, UnsafeTableNameIsRejectedBeforeAnyWrite) {
  common::MemoryFileSystem mem;
  BatchManifest manifest = InstallFleet(&mem, 2);
  manifest.tables[0].first = "../../escaped";
  test::CrashPointFileSystem counter(&mem, 0);  // counts, never crashes
  common::SetFileSystemForTest(&counter);
  BatchOptions opts;
  opts.outdir = "/out/run";
  opts.journal = "/out/run/batch.journal";
  auto run = RunBatch(manifest, opts);
  common::SetFileSystemForTest(nullptr);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument)
      << run.status().ToString();
  EXPECT_EQ(counter.mutations(), 0u);
  EXPECT_FALSE(mem.Exists("/out/run/../../escaped.csv"));
}

TEST(PipelineResume, StaleJournalIsIgnored) {
  common::MemoryFileSystem mem;
  common::SetFileSystemForTest(&mem);
  BatchManifest manifest = InstallFleet(&mem, 3);

  BatchOptions opts;
  opts.outdir = "/out";
  opts.journal = "/out/journal";
  {
    auto first = RunBatch(manifest, opts);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first->complete());
  }
  auto want = FinalTable("/out");
  ASSERT_TRUE(want.ok());

  // Change the fleet (new document): the batch key changes, the old
  // journal must be discarded — every document re-executes, none is
  // wrongly "resumed" into the new fleet.
  EXPECT_TRUE(mem.WriteFile("/fleet/docs/d3.xml",
                            "<db><person><name>n3</name><age>23</age>"
                            "</person></db>")
                  .ok());
  manifest.documents.push_back("/fleet/docs/d3.xml");
  auto second = RunBatch(manifest, opts);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->complete());
  EXPECT_EQ(second->docs_resumed(), 0u);
  EXPECT_EQ(second->docs_done(), 4u);
  auto healed = FinalTable("/out");
  ASSERT_TRUE(healed.ok());
  EXPECT_NE(healed->find("n3"), std::string::npos);

  // A garbage journal likewise reads as "nothing completed".
  EXPECT_TRUE(mem.WriteFile("/out/journal", "not a journal\n").ok());
  auto third = RunBatch(manifest, opts);
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->complete());
  EXPECT_EQ(third->docs_resumed(), 0u);
  auto again = FinalTable("/out");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *healed);

  common::SetFileSystemForTest(nullptr);
}

// The batch key heads every journal, so a moved key makes every existing
// journal stale: pin one value.
TEST(PipelineResume, BatchKeyIsPinned) {
  EXPECT_EQ(BatchKey("<db><person><name>Alice</name></person></db>",
                     {{"people", "Alice\n"}, {"ages", "30\n41\n"}},
                     {"docs/d0.xml", "docs/d1.xml"}),
            "867789152b11b97608d041a3d3374df2");
}

TEST(PipelineResume, ResumedShardMissingForcesReexecution) {
  common::MemoryFileSystem mem;
  common::SetFileSystemForTest(&mem);
  BatchManifest manifest = InstallFleet(&mem, 4);

  BatchOptions opts;
  opts.outdir = "/out";
  opts.journal = "/out/journal";
  {
    auto first = RunBatch(manifest, opts);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first->complete());
  }
  auto want = FinalTable("/out");
  ASSERT_TRUE(want.ok());

  // A journaled document whose shard vanished (torn write, manual
  // cleanup) is demoted back to execution, not trusted.
  mem.Remove("/out/shards/people.2.csv");
  auto second = RunBatch(manifest, opts);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->complete());
  EXPECT_EQ(second->docs_resumed(), 3u);
  EXPECT_EQ(second->docs_done(), 1u);
  auto healed = FinalTable("/out");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, *want);

  common::SetFileSystemForTest(nullptr);
}

TEST(PipelineResume, TornButParseableShardIsDetectedByCrc) {
  common::MemoryFileSystem mem;
  common::SetFileSystemForTest(&mem);
  BatchManifest manifest = InstallFleet(&mem, 4);

  BatchOptions opts;
  opts.outdir = "/out";
  opts.journal = "/out/journal";
  {
    auto first = RunBatch(manifest, opts);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first->complete());
  }
  auto want = FinalTable("/out");
  ASSERT_TRUE(want.ok());

  // Corrupt a journaled shard with bytes that still parse as CSV. A
  // re-parse alone would trust it; the journal v2 CRC catches it and the
  // document is re-executed.
  EXPECT_TRUE(mem.WriteFile("/out/shards/people.1.csv", "zz,99\n").ok());
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  auto second = RunBatch(manifest, opts);
  ASSERT_TRUE(second.ok());
  obs::MetricsSnapshot delta = obs::SnapshotDelta(before);
  EXPECT_TRUE(second->complete());
  EXPECT_EQ(second->docs_resumed(), 3u);
  EXPECT_EQ(second->docs_done(), 1u);
  EXPECT_EQ(delta["pipeline/journal/crc_mismatch"], 1u);
  auto healed = FinalTable("/out");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, *want);
  EXPECT_EQ(healed->find("zz"), std::string::npos);

  common::SetFileSystemForTest(nullptr);
}

TEST(PipelineResume, V1JournalResumesNothingAndYieldsSameBytes) {
  common::MemoryFileSystem mem;
  common::SetFileSystemForTest(&mem);
  BatchManifest manifest = InstallFleet(&mem, 4);

  BatchOptions opts;
  opts.outdir = "/out";
  opts.journal = "/out/journal";
  std::string key;
  {
    auto first = RunBatch(manifest, opts);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first->complete());
    key = first->batch_key;
  }
  auto want = FinalTable("/out");
  ASSERT_TRUE(want.ok());

  // A journal in the retired v1 format (no CRCs) listing documents 0 and
  // 2 as done reads as stale: nothing resumes, everything re-executes.
  std::string v1 = "mitra-batch-journal v1\nbatch " + key + "\n";
  v1 += "done 0 " + manifest.documents[0] + "\n";
  v1 += "done 2 " + manifest.documents[2] + "\n";
  EXPECT_TRUE(mem.WriteFile("/out/journal", v1).ok());

  auto second = RunBatch(manifest, opts);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->complete());
  EXPECT_EQ(second->docs_resumed(), 0u);
  EXPECT_EQ(second->docs_done(), 4u);
  auto rerun = FinalTable("/out");
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(*rerun, *want);

  // The journal is rewritten as v2, one CRC-carrying done line per
  // document.
  auto journal = mem.ReadFile("/out/journal");
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->rfind("mitra-batch-journal v2\n", 0), 0u);
  for (int d = 0; d < 4; ++d) {
    EXPECT_NE(journal->find("done " + std::to_string(d) + " "),
              std::string::npos);
  }

  common::SetFileSystemForTest(nullptr);
}

}  // namespace
}  // namespace mitra::pipeline
