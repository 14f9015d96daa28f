/// Search-space regression guard (ISSUE 7): pins the deterministic
/// synthesis-search counters for ten corpus tasks against checked-in
/// baselines (tests/baselines/metrics.json). A change that blows up the
/// search — more candidates enumerated, bigger DFAs — fails loudly even
/// when wall-clock noise would hide it in the benchmarks.
///
/// The guard is one-sided with 10% headroom: current > baseline * 1.10
/// fails; improvements pass (refresh the baseline to lock them in).
/// Refresh with:
///   UPDATE_BASELINES=1 ./metrics_baseline_test

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/fs.h"
#include "core/synthesizer.h"
#include "json/json_parser.h"
#include "test_util.h"
#include "workload/corpus.h"

namespace mitra::core {
namespace {

constexpr const char* kBaselinePath = "/baselines/metrics.json";

/// The counters pinned per task. All are deterministic at threads=1
/// (asserted by metrics_invariant_test), so the baseline is exact, not a
/// tolerance band around noise.
const char* const kPinnedMetrics[] = {
    "synth/phase2/candidates_enumerated",
    "synth/phase2/instances_distinct",
    "synth/phase2/instances_shared",
    "dfa/construct/states",
    "dfa/intersect/states",
    "dfa/enumerate/expansions",
    "setcover/bnb/nodes_expanded",
    "setcover/bnb/nodes_bounded",
};

using TaskMetrics = std::map<std::string, std::uint64_t>;

std::string BaselineFile() {
  return std::string(MITRA_TEST_SRCDIR) + kBaselinePath;
}

/// Runs the first ten solvable corpus tasks at threads=1 and returns the
/// pinned counters per task id.
std::map<std::string, TaskMetrics> MeasureCurrent() {
  std::map<std::string, TaskMetrics> out;
  size_t taken = 0;
  for (const workload::CorpusTask& task : workload::FullCorpus()) {
    if (!task.expect_solvable) continue;
    hdt::Hdt tree = task.format == workload::DocFormat::kXml
                        ? test::ParseXmlOrDie(task.document)
                        : test::ParseJsonOrDie(task.document);
    hdt::Table table = test::MakeTable(task.output);
    core::SynthesisOptions opts;
    opts.time_limit_seconds = 30.0;
    opts.num_threads = 1;
    auto result = core::LearnTransformation(tree, table, opts);
    EXPECT_TRUE(result.ok()) << task.id << ": "
                             << result.status().ToString();
    if (!result.ok()) continue;
    TaskMetrics& tm = out[task.id];
    for (const char* metric : kPinnedMetrics) {
      auto it = result->stats.metrics.find(metric);
      tm[metric] = it == result->stats.metrics.end() ? 0 : it->second;
    }
    if (++taken == 10) break;
  }
  return out;
}

std::string ToJson(const std::map<std::string, TaskMetrics>& tasks) {
  std::string out = "{\n";
  bool first_task = true;
  for (const auto& [id, tm] : tasks) {
    if (!first_task) out += ",\n";
    first_task = false;
    out += "  \"" + id + "\": {";
    bool first_metric = true;
    for (const auto& [metric, value] : tm) {
      if (!first_metric) out += ", ";
      first_metric = false;
      out += "\"" + std::string(metric) + "\": " + std::to_string(value);
    }
    out += "}";
  }
  out += "\n}\n";
  return out;
}

/// Loads baselines with the repo's JSON parser: top-level keys are task
/// ids, each an object of metric → value.
std::map<std::string, TaskMetrics> LoadBaselines(const std::string& text) {
  std::map<std::string, TaskMetrics> out;
  auto r = json::ParseJson(text);
  EXPECT_TRUE(r.ok()) << "unparseable baseline file: "
                      << r.status().ToString();
  if (!r.ok()) return out;
  const hdt::Hdt& t = *r;
  for (hdt::NodeId task_node : t.Children(t.root())) {
    TaskMetrics& tm = out[std::string(t.NodeTagName(task_node))];
    for (hdt::NodeId metric_node : t.Children(task_node)) {
      tm[std::string(t.NodeTagName(metric_node))] = static_cast<std::uint64_t>(
          std::strtoull(std::string(t.Data(metric_node)).c_str(), nullptr,
                        10));
    }
  }
  return out;
}

TEST(MetricsBaseline, SearchSpaceWithinTenPercentOfBaseline) {
  std::map<std::string, TaskMetrics> current = MeasureCurrent();
  ASSERT_EQ(current.size(), 10u);

  if (std::getenv("UPDATE_BASELINES") != nullptr) {
    Status s =
        common::GetFileSystem()->WriteFile(BaselineFile(), ToJson(current));
    ASSERT_TRUE(s.ok()) << s.ToString();
    GTEST_SKIP() << "baselines refreshed: " << BaselineFile();
  }

  auto baseline_text = common::GetFileSystem()->ReadFile(BaselineFile());
  ASSERT_TRUE(baseline_text.ok())
      << "missing " << BaselineFile()
      << " — generate it with UPDATE_BASELINES=1 ./metrics_baseline_test";
  std::map<std::string, TaskMetrics> baseline =
      LoadBaselines(*baseline_text);

  for (const auto& [id, tm] : current) {
    auto bit = baseline.find(id);
    ASSERT_NE(bit, baseline.end())
        << "task " << id << " has no baseline — refresh with "
        << "UPDATE_BASELINES=1 ./metrics_baseline_test";
    for (const auto& [metric, value] : tm) {
      auto mit = bit->second.find(metric);
      ASSERT_NE(mit, bit->second.end())
          << id << " baseline lacks " << metric
          << " — refresh with UPDATE_BASELINES=1 ./metrics_baseline_test";
      std::uint64_t allowed = mit->second + (mit->second + 9) / 10;
      EXPECT_LE(value, allowed)
          << "SEARCH-SPACE REGRESSION: " << id << " " << metric << " = "
          << value << ", baseline " << mit->second << " (+10% = " << allowed
          << "). If intentional, refresh with UPDATE_BASELINES=1 "
          << "./metrics_baseline_test";
      if (value * 2 < mit->second) {
        std::fprintf(stderr,
                     "note: %s %s improved to %llu (baseline %llu); "
                     "consider UPDATE_BASELINES=1 to lock it in\n",
                     id.c_str(), metric.c_str(),
                     static_cast<unsigned long long>(value),
                     static_cast<unsigned long long>(mit->second));
      }
    }
  }
}

}  // namespace
}  // namespace mitra::core
