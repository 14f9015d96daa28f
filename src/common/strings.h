#ifndef MITRA_COMMON_STRINGS_H_
#define MITRA_COMMON_STRINGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// \file strings.h
/// Small string utilities shared across modules. Kept dependency-free.

namespace mitra {

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

/// Removes ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view s);

/// Attempts to parse `s` as a finite double with no trailing garbage.
/// Accepts integers and decimal/scientific notation.
std::optional<double> ParseNumber(std::string_view s);

/// Three-way comparison of two data values using the paper's comparison
/// semantics for predicates: if both parse as numbers, compare numerically,
/// otherwise compare lexicographically. Returns <0, 0, >0.
int CompareData(std::string_view a, std::string_view b);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// 64-bit FNV-1a hash, used for hashing node-set signatures.
uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed = 1469598103934665603ULL);

/// A 128-bit key over length-framed fields: every field goes through two
/// 64-bit FNV-1a states, each from its own seed, and Hex() concatenates
/// the two digests. Each kind of key has its own seed pair.
class KeyHasher {
 public:
  KeyHasher(uint64_t seed1, uint64_t seed2) : h1_(seed1), h2_(seed2) {}
  /// Hashes the length (as Int), then the bytes.
  void Bytes(std::string_view s);
  /// Hashes the 8 bytes of `v` in memory order.
  void Int(uint64_t v);
  /// 32 lowercase hex digits: h1 then h2.
  std::string Hex() const;

 private:
  uint64_t h1_;
  uint64_t h2_;
};

/// CRC-32 (IEEE 802.3 polynomial, the zlib/`cksum -o 3` variant). Used by
/// the batch journal to detect torn-but-parseable shard files. Chainable:
/// pass the previous return value as `crc` to extend over more data.
uint32_t Crc32(const void* data, size_t n, uint32_t crc = 0);

/// Hash combiner (boost-style).
inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

}  // namespace mitra

#endif  // MITRA_COMMON_STRINGS_H_
