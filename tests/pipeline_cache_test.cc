#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/strings.h"
#include "dsl/ast.h"
#include "dsl/parser.h"
#include "pipeline/batch.h"
#include "pipeline/program_cache.h"

/// pipeline_cache_test (ISSUE 8): a corrupted or poisoned cached program
/// must be detected (checksum / parse / verification failure), fall back
/// to fresh synthesis with a clean Status, and be overwritten with the
/// good entry — never crash, never emit wrong tables.

namespace mitra::pipeline {
namespace {

class CacheFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    common::SetFileSystemForTest(&mem_);
    ASSERT_TRUE(mem_.WriteFile("/fleet/example.xml",
                               "<db><person><name>Alice</name><age>30</age>"
                               "</person><person><name>Bob</name>"
                               "<age>41</age></person></db>")
                    .ok());
    ASSERT_TRUE(
        mem_.WriteFile("/fleet/people.csv", "Alice,30\nBob,41\n").ok());
    ASSERT_TRUE(mem_.WriteFile("/fleet/docs/d0.xml",
                               "<db><person><name>Carol</name><age>52</age>"
                               "</person></db>")
                    .ok());
    manifest_.example_doc = "/fleet/example.xml";
    manifest_.tables.emplace_back("people", "/fleet/people.csv");
    manifest_.documents.push_back("/fleet/docs/d0.xml");
  }
  void TearDown() override { common::SetFileSystemForTest(nullptr); }

  Result<BatchReport> Run(FsProgramCache* cache) {
    BatchOptions opts;
    opts.outdir = "/out";
    opts.cache = cache;
    return RunBatch(manifest_, opts);
  }

  std::string FinalTable() {
    auto bytes = mem_.ReadFile("/out/people.csv");
    EXPECT_TRUE(bytes.ok());
    return bytes.ok() ? *bytes : std::string();
  }

  /// Path of the single cache entry written by a cold run.
  std::string EntryPath() {
    auto entries = mem_.ListDir("/cache");
    EXPECT_TRUE(entries.ok());
    EXPECT_EQ(entries->size(), 1u);
    return entries->front();
  }

  common::MemoryFileSystem mem_;
  BatchManifest manifest_;
};

/// A small concrete program: one column, children(s, person) →
/// pchildren(·, name, 0), φ = true.
dsl::Program SampleProgram() {
  dsl::Program p;
  dsl::ColumnExtractor pi;
  pi.steps.push_back(dsl::ColStep{dsl::ColOp::kChildren, "person", 0});
  pi.steps.push_back(dsl::ColStep{dsl::ColOp::kPChildren, "name", 0});
  p.columns.push_back(std::move(pi));
  p.formula = dsl::Dnf::True();
  return p;
}

TEST_F(CacheFixture, EncodeDecodeRoundTrip) {
  const dsl::Program program = SampleProgram();
  std::string encoded = EncodeCacheEntry("deadbeef", program);
  auto decoded = DecodeCacheEntry("deadbeef", encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(dsl::ToString(*decoded), dsl::ToString(program));
  // Key mismatch is an integrity failure (entry copied across keys).
  EXPECT_FALSE(DecodeCacheEntry("f00dface", encoded).ok());
}

TEST_F(CacheFixture, TruncatedEntryFallsBackAndIsOverwritten) {
  FsProgramCache cache("/cache");
  auto cold = Run(&cache);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_TRUE(cold->complete());
  std::string want = FinalTable();
  std::string path = EntryPath();
  auto good = mem_.ReadFile(path);
  ASSERT_TRUE(good.ok());

  // Truncate mid-payload: checksum mismatch.
  ASSERT_TRUE(mem_.WriteFile(path, good->substr(0, good->size() / 2)).ok());
  auto run = Run(&cache);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->complete());
  EXPECT_FALSE(run->learn.tables[0].cache_hit);
  EXPECT_EQ(FinalTable(), want);
  EXPECT_GE(cache.corrupt(), 1u);
  // The bad entry was overwritten with the freshly synthesized one. An
  // entry holds only the program, so the repair is the original's bytes.
  auto repaired_bytes = mem_.ReadFile(path);
  ASSERT_TRUE(repaired_bytes.ok());
  EXPECT_EQ(*repaired_bytes, *good);
  // …so the next run hits again.
  auto warm = Run(&cache);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->learn.tables[0].cache_hit);
}

TEST_F(CacheFixture, GarbageEntryFallsBack) {
  FsProgramCache cache("/cache");
  auto cold = Run(&cache);
  ASSERT_TRUE(cold.ok());
  std::string want = FinalTable();
  std::string path = EntryPath();

  ASSERT_TRUE(mem_.WriteFile(path, "complete garbage\x01\x02\xff").ok());
  auto run = Run(&cache);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->complete());
  EXPECT_FALSE(run->learn.tables[0].cache_hit);
  EXPECT_EQ(FinalTable(), want);
  EXPECT_GE(cache.corrupt(), 1u);
}

TEST_F(CacheFixture, V1EntryReadsAsCorruptOnceAndIsOverwritten) {
  FsProgramCache cache("/cache");
  auto cold = Run(&cache);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  std::string want = FinalTable();
  std::string path = EntryPath();
  auto good = mem_.ReadFile(path);
  ASSERT_TRUE(good.ok());

  // The retired v1 layout: timing stats before the program.
  const std::string key =
      path.substr(path.rfind('/') + 1, path.size() - path.rfind('/') - 1 - 4);
  auto program = DecodeCacheEntry(key, *good);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const std::string body = "seconds 0.5\ntried 3\nconsistent 1\nprogram\n" +
                           dsl::ToString(*program);
  char check[17];
  std::snprintf(check, sizeof(check), "%016llx",
                static_cast<unsigned long long>(
                    Fnv1a64(body.data(), body.size())));
  ASSERT_TRUE(mem_.WriteFile(path, "mitra-program-cache v1\nkey " + key +
                                       "\ncheck " + check + "\n" + body)
                  .ok());

  auto run = Run(&cache);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_FALSE(run->learn.tables[0].cache_hit);
  EXPECT_EQ(cache.corrupt(), 1u);
  EXPECT_EQ(FinalTable(), want);
  auto rewritten = mem_.ReadFile(path);
  ASSERT_TRUE(rewritten.ok());
  EXPECT_EQ(*rewritten, *good);
  auto warm = Run(&cache);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->learn.tables[0].cache_hit);
  EXPECT_EQ(cache.corrupt(), 1u);
}

TEST_F(CacheFixture, WellFormedButWrongProgramIsRejectedByVerification) {
  FsProgramCache cache("/cache");
  auto cold = Run(&cache);
  ASSERT_TRUE(cold.ok());
  std::string want = FinalTable();
  std::string path = EntryPath();

  // Adversarial poisoning: a VALID entry (checksum and all) whose program
  // parses but computes the wrong table — both columns extract `name`,
  // so the arity is right and only the migrator's re-verification
  // against the example can catch it.
  const std::string key =
      path.substr(path.rfind('/') + 1,
                  path.size() - path.rfind('/') - 1 - 4);  // strip ".mpc"
  auto good_entry = mem_.ReadFile(path);
  ASSERT_TRUE(good_entry.ok());
  auto poison = DecodeCacheEntry(key, *good_entry);
  ASSERT_TRUE(poison.ok()) << poison.status().ToString();
  ASSERT_EQ(poison->columns.size(), 2u);
  poison->columns[1] = poison->columns[0];
  ASSERT_TRUE(mem_.WriteFile(path, EncodeCacheEntry(key, *poison)).ok());

  auto run = Run(&cache);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->complete());
  EXPECT_FALSE(run->learn.tables[0].cache_hit);
  // The decisive rejection is recorded in the retry trail.
  bool trail_has_cache = false;
  for (const std::string& entry : run->learn.tables[0].retry_trail) {
    if (entry.rfind("cache: ", 0) == 0) trail_has_cache = true;
  }
  EXPECT_TRUE(trail_has_cache);
  // Output correctness is non-negotiable.
  EXPECT_EQ(FinalTable(), want);
  // And the poisoned entry is gone: next run is a genuine hit.
  auto warm = Run(&cache);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->learn.tables[0].cache_hit);
  EXPECT_EQ(FinalTable(), want);
}

}  // namespace
}  // namespace mitra::pipeline
