/// Metrics-driven invariant tests (ISSUE 7): runs a slice of the §7.1
/// benchmark corpus through the synthesizer and checks structural
/// invariants of the observability counters rather than of the programs:
///
///  - synth/phase2: candidates_pruned + candidates_accepted ==
///    candidates_enumerated, per task (the merge loop classifies every
///    enumerated table extractor exactly once);
///  - the cross-candidate extractor memo sees hits on tasks with repeated
///    extractors (hit rate > 0 in aggregate);
///  - the dictionary-id fast path fires;
///  - hdt/build/{trees,nodes,dict_entries} count every finished tree
///    exactly once, with its node and dictionary sizes;
///  - the deterministic counter subset is identical at threads=1 and
///    threads=8 (the parallel merge loop replays the sequential order),
///    and there instances_distinct + instances_shared == table extractors
///    tried (every tried ψ takes exactly one predicate-learning instance);
///  - on the deliberately unsolvable tasks too, with the same error at
///    both thread counts (Phase 1 learns every column at any count);
///  - an instrumented run populates >= 12 distinct counters across >= 5
///    layers and emits spans (the ISSUE 7 acceptance criterion).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/synthesizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"
#include "workload/corpus.h"

namespace mitra::core {
namespace {

using obs::MetricsSnapshot;

core::SynthesisOptions Options(int num_threads) {
  core::SynthesisOptions opts;
  opts.time_limit_seconds = 30.0;
  opts.num_threads = num_threads;
  return opts;
}

hdt::Hdt ParseTaskDoc(const workload::CorpusTask& task) {
  if (task.format == workload::DocFormat::kXml) {
    return test::ParseXmlOrDie(task.document);
  }
  return test::ParseJsonOrDie(task.document);
}

/// The first `n` solvable corpus tasks (stable: the corpus is code-
/// generated, so slicing by position is as reproducible as slicing by id).
std::vector<workload::CorpusTask> SolvableTasks(size_t n) {
  std::vector<workload::CorpusTask> out;
  for (const workload::CorpusTask& task : workload::FullCorpus()) {
    if (!task.expect_solvable) continue;
    out.push_back(task);
    if (out.size() == n) break;
  }
  return out;
}

std::uint64_t At(const MetricsSnapshot& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}

/// The counters guaranteed thread-count-invariant: Phase 1 column learning
/// and the Phase 2 merge loop replay the sequential order exactly, so
/// everything counted there is deterministic. Speculative counters (set
/// cover, predicate universe, governor, pool) legitimately vary — wave
/// evaluation runs ahead of the merge decision.
bool IsDeterministicKey(const std::string& key) {
  return key.rfind("dfa/", 0) == 0 ||
         key == "synth/phase1/columns" ||
         key == "synth/phase1/column_candidates" ||
         key.rfind("synth/phase2/candidates_", 0) == 0 ||
         key.rfind("synth/phase2/instances_", 0) == 0;
}

MetricsSnapshot DeterministicSubset(const MetricsSnapshot& m) {
  MetricsSnapshot out;
  for (const auto& [k, v] : m) {
    if (IsDeterministicKey(k)) out[k] = v;
  }
  return out;
}

TEST(MetricsInvariant, PrunedPlusAcceptedEqualsEnumeratedPerTask) {
  std::uint64_t total_enumerated = 0;
  for (const workload::CorpusTask& task : SolvableTasks(20)) {
    hdt::Hdt tree = ParseTaskDoc(task);
    hdt::Table table = test::MakeTable(task.output);
    auto result = core::LearnTransformation(tree, table, Options(1));
    ASSERT_TRUE(result.ok()) << task.id << ": "
                             << result.status().ToString();

    const auto& m = result->stats.metrics;
    std::uint64_t enumerated = At(m, "synth/phase2/candidates_enumerated");
    std::uint64_t pruned = At(m, "synth/phase2/candidates_pruned");
    std::uint64_t accepted = At(m, "synth/phase2/candidates_accepted");
    EXPECT_GT(enumerated, 0u) << task.id;
    EXPECT_EQ(pruned + accepted, enumerated)
        << task.id << ": every enumerated candidate must be classified "
        << "exactly once (pruned=" << pruned << " accepted=" << accepted
        << " enumerated=" << enumerated << ")";
    total_enumerated += enumerated;
  }
  EXPECT_GT(total_enumerated, 0u);
}

TEST(MetricsInvariant, ExtractorMemoHitsOnRepeatedExtractors) {
  // Across 20 tasks the ψ candidates share column extractors constantly;
  // a zero aggregate hit count would mean the memo is disconnected.
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  for (const workload::CorpusTask& task : SolvableTasks(20)) {
    hdt::Hdt tree = ParseTaskDoc(task);
    hdt::Table table = test::MakeTable(task.output);
    core::SynthesisOptions opts = Options(2);  // threads>1 exercises sharing
    auto result = core::LearnTransformation(tree, table, opts);
    ASSERT_TRUE(result.ok()) << task.id;
  }
  obs::MetricsSnapshot delta = obs::SnapshotDelta(before);
  std::uint64_t hits = At(delta, "memo/extractor/hits");
  std::uint64_t misses = At(delta, "memo/extractor/misses");
  EXPECT_GT(hits, 0u) << "no memo hits across 20 corpus tasks";
  EXPECT_GT(misses, 0u);
}

TEST(MetricsInvariant, DictionaryFastPathCountersFire) {
  // At least one early corpus task synthesizes a predicate with a data
  // constant that lives in the tree's dictionary. Scan until one fires.
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  std::uint64_t fastpath = 0;
  for (const workload::CorpusTask& task : SolvableTasks(30)) {
    hdt::Hdt tree = ParseTaskDoc(task);
    hdt::Table table = test::MakeTable(task.output);
    auto result = core::LearnTransformation(tree, table, Options(1));
    if (!result.ok()) continue;
    fastpath +=
        At(result->stats.metrics, "predicate/universe/dict_fastpath");
    if (fastpath > 0) break;
  }
  EXPECT_GT(fastpath, 0u) << "no run hit the dictionary-id fast path";
}

TEST(MetricsInvariant, BuildCountersCountEachTreeOnce) {
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  std::uint64_t trees = 0, nodes = 0, dict_entries = 0;
  for (const workload::CorpusTask& task : workload::FullCorpus()) {
    const hdt::Hdt tree = ParseTaskDoc(task);
    const hdt::Hdt copy = tree;  // copies share the tree; nothing is built
    ++trees;
    nodes += copy.size();
    dict_entries += copy.DictSize();
  }
  obs::MetricsSnapshot delta = obs::SnapshotDelta(before);
  EXPECT_EQ(At(delta, "hdt/build/trees"), trees);
  EXPECT_EQ(At(delta, "hdt/build/nodes"), nodes);
  EXPECT_EQ(At(delta, "hdt/build/dict_entries"), dict_entries);
  EXPECT_EQ(At(delta, "parse/xml/nodes") + At(delta, "parse/json/nodes"),
            nodes);
}

TEST(MetricsInvariant, DeterministicCountersIdenticalAcrossThreadCounts) {
  for (const workload::CorpusTask& task : SolvableTasks(6)) {
    hdt::Hdt tree = ParseTaskDoc(task);
    hdt::Table table = test::MakeTable(task.output);

    auto r1 = core::LearnTransformation(tree, table, Options(1));
    ASSERT_TRUE(r1.ok()) << task.id;
    auto r8 = core::LearnTransformation(tree, table, Options(8));
    ASSERT_TRUE(r8.ok()) << task.id;

    MetricsSnapshot d1 = DeterministicSubset(r1->stats.metrics);
    MetricsSnapshot d8 = DeterministicSubset(r8->stats.metrics);
    EXPECT_EQ(d1, d8)
        << task.id
        << ": deterministic counters diverged between threads=1 and "
        << "threads=8 (the merge loop must replay the sequential order)";
    for (const auto* r : {&*r1, &*r8}) {
      const auto& m = r->stats.metrics;
      EXPECT_EQ(At(m, "synth/phase2/instances_distinct") +
                    At(m, "synth/phase2/instances_shared"),
                r->stats.table_extractors_tried)
          << task.id << ": every tried table extractor must take exactly "
          << "one predicate-learning instance";
    }
  }
}

TEST(MetricsInvariant, UnsolvableTasksDoTheSameWorkAcrossThreadCounts) {
  // Phase 1 learns every column at every thread count, so a task whose
  // column fails still builds the same DFAs at threads=1 and threads=8. A
  // failed run returns no stats: the deltas come from the registry.
  size_t unsolvable = 0;
  for (const workload::CorpusTask& task : workload::FullCorpus()) {
    if (task.expect_solvable) continue;
    ++unsolvable;
    hdt::Hdt tree = ParseTaskDoc(task);
    hdt::Table table = test::MakeTable(task.output);
    Status status[2];
    MetricsSnapshot counters[2];
    for (int run = 0; run < 2; ++run) {
      MetricsSnapshot before = obs::SnapshotMetrics();
      status[run] =
          core::LearnTransformation(tree, table, Options(run == 0 ? 1 : 8))
              .status();
      counters[run] = DeterministicSubset(obs::SnapshotDelta(before));
    }
    EXPECT_FALSE(status[0].ok()) << task.id;
    EXPECT_EQ(status[0].ToString(), status[1].ToString()) << task.id;
    EXPECT_GT(At(counters[0], "dfa/construct/states"), 0u) << task.id;
    EXPECT_EQ(counters[0], counters[1])
        << task.id << ": deterministic counters diverged between threads=1 "
        << "and threads=8 on a failing task";
  }
  EXPECT_EQ(unsolvable, 6u);
}

TEST(MetricsInvariant, InstrumentedRunCoversTwelveCountersAcrossFiveLayers) {
  // The ISSUE 7 acceptance criterion, asserted in-process: a traced corpus
  // run yields >= 12 distinct non-zero counters spanning >= 5 layers
  // (first path segment), and the tracer retained spans from >= 2 layers.
  obs::MetricsSnapshot before = obs::SnapshotMetrics();
  obs::Tracer::Global().Clear();
  obs::Tracer::Global().SetEnabled(true);
  for (const workload::CorpusTask& task : SolvableTasks(3)) {
    hdt::Hdt tree = ParseTaskDoc(task);
    hdt::Table table = test::MakeTable(task.output);
    auto result = core::LearnTransformation(tree, table, Options(2));
    ASSERT_TRUE(result.ok()) << task.id;
  }
  obs::Tracer::Global().SetEnabled(false);

  obs::MetricsSnapshot delta = obs::SnapshotDelta(before);
  std::map<std::string, int> layers;
  int nonzero = 0;
  for (const auto& [key, value] : delta) {
    if (value == 0) continue;
    ++nonzero;
    ++layers[key.substr(0, key.find('/'))];
  }
  EXPECT_GE(nonzero, 12) << obs::MetricsJson(delta);
  EXPECT_GE(layers.size(), 5u) << obs::MetricsJson(delta);

  std::vector<obs::TraceEvent> events = obs::Tracer::Global().Collect();
  std::map<std::string, int> span_layers;
  for (const obs::TraceEvent& ev : events) {
    std::string name = ev.name;
    ++span_layers[name.substr(0, name.find('/'))];
  }
  EXPECT_GE(events.size(), 3u);
  EXPECT_GE(span_layers.size(), 2u);
  obs::Tracer::Global().Clear();
}

}  // namespace
}  // namespace mitra::core
