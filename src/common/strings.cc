#include "common/strings.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace mitra {

std::vector<std::string> SplitString(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t p = s.find(sep, start);
    if (p == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, p - start));
    start = p + 1;
  }
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::optional<double> ParseNumber(std::string_view s) {
  if (s.empty() || s.size() > 63) return std::nullopt;
  char buf[64];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(buf, &end);
  if (end != buf + s.size() || errno == ERANGE || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

int CompareData(std::string_view a, std::string_view b) {
  auto na = ParseNumber(a);
  auto nb = ParseNumber(b);
  if (na && nb) {
    if (*na < *nb) return -1;
    if (*na > *nb) return 1;
    return 0;
  }
  int c = a.compare(b);
  return c < 0 ? -1 : (c > 0 ? 1 : 0);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  std::string out;
  if (from.empty()) return std::string(s);
  size_t start = 0;
  while (true) {
    size_t p = s.find(from, start);
    if (p == std::string_view::npos) {
      out.append(s.substr(start));
      return out;
    }
    out.append(s.substr(start, p - start));
    out.append(to);
    start = p + from.size();
  }
}

uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

void KeyHasher::Bytes(std::string_view s) {
  Int(s.size());
  h1_ = Fnv1a64(s.data(), s.size(), h1_);
  h2_ = Fnv1a64(s.data(), s.size(), h2_);
}

void KeyHasher::Int(uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(buf));
  h1_ = Fnv1a64(buf, sizeof(buf), h1_);
  h2_ = Fnv1a64(buf, sizeof(buf), h2_);
}

std::string KeyHasher::Hex() const {
  char buf[33];
  std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                static_cast<unsigned long long>(h1_),
                static_cast<unsigned long long>(h2_));
  return buf;
}

uint32_t Crc32(const void* data, size_t n, uint32_t crc) {
  // Table generated lazily from the reflected IEEE polynomial 0xEDB88320;
  // thread-safe via the C++11 static-initialization guarantee.
  static const auto* kTable = [] {
    auto* table = new uint32_t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace mitra
