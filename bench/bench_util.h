#ifndef MITRA_BENCH_BENCH_UTIL_H_
#define MITRA_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "common/fs.h"
#include "common/json_escape.h"
#include "common/status.h"

/// \file bench_util.h
/// Small shared helpers for the table-reproduction benchmark binaries.

namespace mitra::bench {

inline double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

inline double AvgOf(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Parses `--flag value` style arguments with defaults.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i + 1 < argc; i += 2) args_.emplace_back(argv[i], argv[i + 1]);
  }
  long Int(const std::string& flag, long fallback) const {
    for (const auto& [k, v] : args_) {
      if (k == "--" + flag) return std::stol(v);
    }
    return fallback;
  }
  std::string Str(const std::string& flag, const std::string& fallback) const {
    for (const auto& [k, v] : args_) {
      if (k == "--" + flag) return v;
    }
    return fallback;
  }

 private:
  std::vector<std::pair<std::string, std::string>> args_;
};

/// Minimal JSON object builder for machine-readable benchmark reports
/// (no external dependency). Strings are escaped with
/// common::EscapeJsonString; `Raw` splices a pre-built JSON value (e.g.
/// an array from JsonArray).
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    // NaN/Inf are not valid JSON; "null" keeps the report parseable.
    if (!std::isfinite(v)) return Raw(key, "null");
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, long long v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + common::EscapeJsonString(v) + "\"");
  }
  Json& Raw(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + common::EscapeJsonString(key) + "\":" + raw;
    return *this;
  }
  std::string Build() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

inline std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ",";
    out += items[i];
  }
  return out + "]";
}

/// Writes `content` to `path` through the common::FileSystem seam (so
/// fault-injecting filesystems apply); warns on stderr instead of failing
/// the run.
inline void WriteFileOrWarn(const std::string& path,
                            const std::string& content) {
  Status s = common::GetFileSystem()->WriteFile(path, content);
  if (!s.ok()) {
    std::fprintf(stderr, "warning: cannot write %s: %s\n", path.c_str(),
                 s.ToString().c_str());
    return;
  }
  std::fprintf(stderr, "wrote %s\n", path.c_str());
}

}  // namespace mitra::bench

#endif  // MITRA_BENCH_BENCH_UTIL_H_
