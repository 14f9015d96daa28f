#ifndef MITRA_PIPELINE_PROGRAM_CACHE_H_
#define MITRA_PIPELINE_PROGRAM_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "common/status.h"
#include "db/migrator.h"

/// \file program_cache.h
/// On-disk content-addressed program cache (ISSUE 8). One file per entry,
/// named `<key>.mpc` under the cache directory, written through the
/// common::FileSystem shim so tests can run it against MemoryFileSystem or
/// FaultyFileSystem.
///
/// Entry format (text; the printed DSL program is the value — the
/// printer/parser round-trip is the serialization contract, which is why
/// dsl::kDslVersion participates in the cache key):
///
///     mitra-program-cache v2
///     key <128-bit hex cache key>
///     check <16-hex FNV-1a of the program text below>
///     <printed DSL program, to end of file>
///
/// An entry holds nothing but the program, so two syntheses of one task
/// write the same bytes. Any integrity failure — missing file, bad magic
/// (a v1 entry included), key mismatch, checksum mismatch, unparseable
/// program — reads as a MISS (counted under `cache/corrupt` when the file
/// existed but was bad), never an error: the migrator falls back to fresh
/// synthesis and overwrites the entry.

namespace mitra::pipeline {

/// Serializes an entry to the on-disk format (exposed for tests that
/// construct poisoned entries from valid ones).
std::string EncodeCacheEntry(const std::string& key,
                             const dsl::Program& program);

/// Parses an entry; any integrity failure is a Status, never a crash.
Result<dsl::Program> DecodeCacheEntry(const std::string& key,
                                      const std::string& content);

/// FileSystem-backed db::ProgramCache. Thread-compatible for distinct keys
/// by construction (one file per key); a mutex serializes same-key
/// lookup/store races from concurrent documents.
class FsProgramCache : public db::ProgramCache {
 public:
  explicit FsProgramCache(std::string dir) : dir_(std::move(dir)) {}

  std::optional<dsl::Program> Lookup(const std::string& key) override;
  Status Store(const std::string& key, const dsl::Program& program) override;

  const std::string& dir() const { return dir_; }
  std::string EntryPath(const std::string& key) const;

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t stores() const {
    return stores_.load(std::memory_order_relaxed);
  }
  std::uint64_t corrupt() const {
    return corrupt_.load(std::memory_order_relaxed);
  }

 private:
  std::string dir_;
  std::mutex mu_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stores_{0};
  std::atomic<std::uint64_t> corrupt_{0};
};

}  // namespace mitra::pipeline

#endif  // MITRA_PIPELINE_PROGRAM_CACHE_H_
