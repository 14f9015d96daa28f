#include "pipeline/program_cache.h"

#include <cstdio>
#include <string_view>

#include "common/fs.h"
#include "common/strings.h"
#include "dsl/parser.h"
#include "obs/obs.h"

namespace mitra::pipeline {

namespace {

constexpr std::string_view kMagic = "mitra-program-cache v2";

std::string Hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Reads one "\n"-terminated line starting at `pos`, advancing `pos` past
/// the terminator. Returns false at end of input.
bool NextLine(const std::string& s, size_t* pos, std::string* line) {
  if (*pos >= s.size()) return false;
  size_t nl = s.find('\n', *pos);
  if (nl == std::string::npos) {
    *line = s.substr(*pos);
    *pos = s.size();
  } else {
    *line = s.substr(*pos, nl - *pos);
    *pos = nl + 1;
  }
  return true;
}

/// Parses "<label> <value>" with an exact label match.
bool Field(const std::string& line, std::string_view label,
           std::string* value) {
  if (line.size() <= label.size() || line.compare(0, label.size(), label) != 0 ||
      line[label.size()] != ' ') {
    return false;
  }
  *value = line.substr(label.size() + 1);
  return true;
}

}  // namespace

std::string EncodeCacheEntry(const std::string& key,
                             const dsl::Program& program) {
  const std::string body = dsl::ToString(program);
  std::string out;
  out.reserve(body.size() + 96);
  out += kMagic;
  out += "\nkey ";
  out += key;
  out += "\ncheck ";
  out += Hex16(Fnv1a64(body.data(), body.size()));
  out += '\n';
  out += body;
  return out;
}

Result<dsl::Program> DecodeCacheEntry(const std::string& key,
                                      const std::string& content) {
  size_t pos = 0;
  std::string line, value;
  if (!NextLine(content, &pos, &line) || line != kMagic) {
    return Status::InvalidArgument("bad cache entry magic");
  }
  if (!NextLine(content, &pos, &line) || !Field(line, "key", &value)) {
    return Status::InvalidArgument("missing cache entry key");
  }
  if (value != key) {
    return Status::InvalidArgument("cache entry key mismatch (want " + key +
                                   ", got " + value + ")");
  }
  if (!NextLine(content, &pos, &line) || !Field(line, "check", &value)) {
    return Status::InvalidArgument("missing cache entry checksum");
  }
  const std::string_view body = std::string_view(content).substr(pos);
  if (Hex16(Fnv1a64(body.data(), body.size())) != value) {
    return Status::InvalidArgument("cache entry checksum mismatch");
  }
  return dsl::ParseProgram(body);
}

std::string FsProgramCache::EntryPath(const std::string& key) const {
  return dir_ + "/" + key + ".mpc";
}

std::optional<dsl::Program> FsProgramCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto content = common::GetFileSystem()->ReadFile(EntryPath(key));
  if (!content.ok()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    MITRA_COUNT("pipeline/cache/miss", 1);
    return std::nullopt;
  }
  auto entry = DecodeCacheEntry(key, *content);
  if (!entry.ok()) {
    // The file existed but was bad: a poisoned or torn entry. Reads as a
    // miss so the migrator re-synthesizes (and Store overwrites it).
    corrupt_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    MITRA_COUNT("pipeline/cache/corrupt", 1);
    MITRA_COUNT("pipeline/cache/miss", 1);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  MITRA_COUNT("pipeline/cache/hit", 1);
  return std::move(*entry);
}

Status FsProgramCache::Store(const std::string& key,
                             const dsl::Program& program) {
  std::lock_guard<std::mutex> lock(mu_);
  // Atomic so a concurrent Lookup (or a crash mid-store) never observes a
  // torn entry; the checksum in the payload is then a second line of
  // defense against bit rot rather than the only one against tearing.
  MITRA_RETURN_IF_ERROR(common::GetFileSystem()->WriteFileAtomic(
      EntryPath(key), EncodeCacheEntry(key, program)));
  stores_.fetch_add(1, std::memory_order_relaxed);
  MITRA_COUNT("pipeline/cache/store", 1);
  return Status::OK();
}

}  // namespace mitra::pipeline
