/// Micro-benchmarks (google-benchmark) for the individual subsystems:
/// parser throughput, DFA construction/intersection, node-extractor
/// enumeration, predicate-universe construction, the exact-cover solver,
/// Quine-McCluskey, both executors, and end-to-end synthesis of the
/// paper's motivating example.

#include <benchmark/benchmark.h>

#include <random>

#include "core/column_learner.h"
#include "core/executor.h"
#include "core/extractor_memo.h"
#include "core/predicate_universe.h"
#include "core/qm.h"
#include "core/set_cover.h"
#include "core/synthesizer.h"
#include "dsl/eval.h"
#include "json/json_parser.h"
#include "workload/datasets.h"
#include "workload/docgen.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace mitra {
namespace {

std::string SocialDoc(int persons) {
  return workload::GenerateSocialNetworkXml(persons, 3);
}

const char* kMotivatingDoc = R"(
<SocialNetwork>
  <Person id="1"><name>Alice</name>
    <Friendship><Friend fid="2" years="3"/><Friend fid="3" years="5"/></Friendship>
  </Person>
  <Person id="2"><name>Bob</name>
    <Friendship><Friend fid="1" years="3"/></Friendship>
  </Person>
  <Person id="3"><name>Carol</name>
    <Friendship><Friend fid="1" years="5"/></Friendship>
  </Person>
</SocialNetwork>)";

hdt::Table MotivatingTable() {
  return *hdt::Table::FromRows({{"Alice", "Bob", "3"},
                                {"Alice", "Carol", "5"},
                                {"Bob", "Alice", "3"},
                                {"Carol", "Alice", "5"}});
}

dsl::Program MotivatingProgram() {
  static const dsl::Program program = [] {
    auto tree = xml::ParseXml(kMotivatingDoc);
    auto table = MotivatingTable();
    return core::LearnTransformation(*tree, table)->program;
  }();
  return program;
}

void BM_ParseXml(benchmark::State& state) {
  std::string doc = SocialDoc(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto tree = xml::ParseXml(doc);
    benchmark::DoNotOptimize(tree);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_ParseXml)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ParseJson(benchmark::State& state) {
  std::string doc =
      workload::Imdb().generate(static_cast<int>(state.range(0)), 3);
  for (auto _ : state) {
    auto tree = json::ParseJson(doc);
    benchmark::DoNotOptimize(tree);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_ParseJson)->Arg(50)->Arg(500);

void BM_WriteXml(benchmark::State& state) {
  auto tree = xml::ParseXml(SocialDoc(1000));
  for (auto _ : state) {
    std::string out = *xml::WriteXml(*tree);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_WriteXml);

void BM_EvalColumnDescendants(benchmark::State& state) {
  auto tree = xml::ParseXml(SocialDoc(static_cast<int>(state.range(0))));
  dsl::ColumnExtractor pi{{{dsl::ColOp::kDescendants, "years", 0}}};
  for (auto _ : state) {
    auto nodes = dsl::EvalColumn(*tree, pi);
    benchmark::DoNotOptimize(nodes);
  }
}
BENCHMARK(BM_EvalColumnDescendants)->Arg(1000)->Arg(10000);

void BM_ConstructColumnDfa(benchmark::State& state) {
  auto tree = xml::ParseXml(SocialDoc(static_cast<int>(state.range(0))));
  std::vector<std::string> targets{"user1", "user2"};
  for (auto _ : state) {
    core::ColSymbolPool pool;
    auto dfa = core::ConstructColumnDfa(*tree, targets, &pool);
    benchmark::DoNotOptimize(dfa);
  }
}
BENCHMARK(BM_ConstructColumnDfa)->Arg(50)->Arg(500);

void BM_LearnColumnExtractors(benchmark::State& state) {
  auto tree = xml::ParseXml(kMotivatingDoc);
  auto table = MotivatingTable();
  core::Examples ex{{&*tree, &table}};
  for (auto _ : state) {
    core::ColSymbolPool pool;
    auto programs = core::LearnColumnExtractors(ex, 0, &pool);
    benchmark::DoNotOptimize(programs);
  }
}
BENCHMARK(BM_LearnColumnExtractors);

void BM_PredicateUniverse(benchmark::State& state) {
  auto tree = xml::ParseXml(kMotivatingDoc);
  auto table = MotivatingTable();
  core::Examples ex{{&*tree, &table}};
  std::vector<dsl::ColumnExtractor> psi{
      {{{dsl::ColOp::kDescendants, "name", 0}}},
      {{{dsl::ColOp::kDescendants, "name", 0}}},
      {{{dsl::ColOp::kDescendants, "years", 0}}}};
  std::vector<std::vector<dsl::NodeTuple>> rows_per_example{
      *dsl::EvalCrossProduct(*tree, psi)};
  for (auto _ : state) {
    // A fresh memo per iteration: each one times the per-column work too.
    core::ExtractorMemoCache memo;
    auto universe =
        core::ConstructPredicateUniverse(ex, psi, rows_per_example, memo);
    benchmark::DoNotOptimize(universe);
  }
}
BENCHMARK(BM_PredicateUniverse);

void BM_MinSetCover(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<core::DynBitset> sets;
  for (size_t s = 0; s < n; ++s) {
    core::DynBitset b(n);
    b.Set(s);
    b.Set((s + 1) % n);
    b.Set((s + 2) % n);
    sets.push_back(std::move(b));
  }
  for (auto _ : state) {
    auto cover = core::MinSetCover(sets, n);
    benchmark::DoNotOptimize(cover);
  }
}
BENCHMARK(BM_MinSetCover)->Arg(24)->Arg(60);

/// A cover instance of the predicate learner's shape and Table 2's size
/// (MONDIAL.city, YELP.review): `on` × `off` class pairs are the elements,
/// and each atom's set holds the pairs its truth separates. Truth over the
/// classes is seeded random at a per-atom density of 1-50%.
std::vector<core::DynBitset> PairStructuredCover(size_t on, size_t off,
                                                 size_t atoms) {
  std::mt19937_64 rng(42);
  std::vector<core::DynBitset> sets;
  for (size_t a = 0; a < atoms; ++a) {
    const uint64_t percent = 1 + rng() % 50;
    core::DynBitset off_truth(off);
    for (size_t j = 0; j < off; ++j) {
      if (rng() % 100 < percent) off_truth.Set(j);
    }
    core::DynBitset off_false = off_truth;
    off_false.Flip();
    core::DynBitset cs(on * off);
    for (size_t i = 0; i < on; ++i) {
      cs.OrAt(rng() % 100 < percent ? off_false : off_truth, i * off);
    }
    sets.push_back(std::move(cs));
  }
  return sets;
}

void BM_MinSetCoverPairs(benchmark::State& state) {
  const size_t on = static_cast<size_t>(state.range(0));
  const size_t off = static_cast<size_t>(state.range(1));
  const std::vector<core::DynBitset> sets =
      PairStructuredCover(on, off, static_cast<size_t>(state.range(2)));
  for (auto _ : state) {
    auto cover = core::MinSetCover(sets, on * off);
    benchmark::DoNotOptimize(cover);
  }
}
// 22 on × 3103 off classes = 68 266 elements, ~550 sets: Table 2's
// largest instances.
BENCHMARK(BM_MinSetCoverPairs)
    ->Args({22, 3103, 550})
    ->Unit(benchmark::kMillisecond);

void BM_MinimizeDnf(benchmark::State& state) {
  std::vector<uint32_t> on, off;
  for (uint32_t m = 0; m < 64; ++m) {
    bool v = ((m & 1) && (m & 2)) || (m & 4) || ((m & 8) && !(m & 16));
    (v ? on : off).push_back(m);
  }
  for (auto _ : state) {
    auto dnf = core::MinimizeDnf(6, on, off);
    benchmark::DoNotOptimize(dnf);
  }
}
BENCHMARK(BM_MinimizeDnf);

void BM_NaiveEval(benchmark::State& state) {
  auto tree = xml::ParseXml(SocialDoc(static_cast<int>(state.range(0))));
  dsl::Program p = MotivatingProgram();
  for (auto _ : state) {
    auto out = dsl::EvalProgram(*tree, p);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_NaiveEval)->Arg(20)->Arg(50);

void BM_OptimizedExecutor(benchmark::State& state) {
  auto tree = xml::ParseXml(SocialDoc(static_cast<int>(state.range(0))));
  dsl::Program p = MotivatingProgram();
  core::OptimizedExecutor exec(p);
  for (auto _ : state) {
    auto out = exec.ExecuteNodes(*tree);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_OptimizedExecutor)->Arg(50)->Arg(200)->Arg(2000);

void BM_SynthesizeMotivatingExample(benchmark::State& state) {
  auto tree = xml::ParseXml(kMotivatingDoc);
  auto table = MotivatingTable();
  for (auto _ : state) {
    auto result = core::LearnTransformation(*tree, table);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SynthesizeMotivatingExample);

}  // namespace
}  // namespace mitra

BENCHMARK_MAIN();
