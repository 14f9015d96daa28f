#include "core/synthesizer.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>

#include "common/thread_pool.h"
#include "core/extractor_memo.h"
#include "dsl/eval.h"
#include "obs/obs.h"

namespace mitra::core {

namespace {

/// Number of edges between two nodes of the same tree.
size_t TreeDistance(const hdt::Hdt& tree, hdt::NodeId a, hdt::NodeId b) {
  int da = tree.Depth(a), db = tree.Depth(b);
  size_t dist = 0;
  while (da > db) {
    a = tree.Parent(a);
    --da;
    ++dist;
  }
  while (db > da) {
    b = tree.Parent(b);
    --db;
    ++dist;
  }
  while (a != b) {
    a = tree.Parent(a);
    b = tree.Parent(b);
    dist += 2;
  }
  return dist;
}

/// Verifies ⟦P⟧T = R on every example through MatchRowSet. On success,
/// `excess` receives the total number of duplicate rows produced across
/// examples — a semantic-tightness signal used as a ranking tie-breaker: a
/// program that keeps extra witnesses on the training example (typically
/// via a coincidental data-level equality) will mis-pair rows at scale.
/// `spread` receives the summed TreeDistance from each output tuple's
/// first node to its others — the structural-cohesion tie-breaker that
/// follows `excess` in RankedCost.
///
/// `want_sets[i]` must be RowSet(*examples[i].table) — the normalization
/// is invariant across candidates, so the caller hoists it out of the
/// Phase-2 loop instead of paying a table copy + sort per combo.
bool VerifyProgram(const Examples& examples,
                   const std::vector<hdt::Table>& want_sets,
                   const dsl::Program& p, const dsl::EvalOptions& eval,
                   size_t* excess, size_t* spread) {
  *excess = 0;
  *spread = 0;
  for (size_t ei = 0; ei < examples.size(); ++ei) {
    const hdt::Hdt& tree = *examples[ei].tree;
    auto tuples = MatchRowSet(tree, p, want_sets[ei], eval);
    if (!tuples.ok()) return false;
    // The row sets match, so the tuples beyond the wanted rows are
    // duplicates.
    *excess += tuples->size() - want_sets[ei].NumRows();
    // Structural cohesion: rows are relations between tree nodes (§1),
    // and among otherwise-equal programs the one whose witness nodes sit
    // close together in the tree is the intended relation — not a
    // coincidental value match pulled from a distant subtree.
    for (const dsl::NodeTuple& t : *tuples) {
      for (size_t i = 1; i < t.size(); ++i) {
        *spread += TreeDistance(tree, t[0], t[i]);
      }
    }
  }
  return true;
}

/// The key of ψ's predicate-learning instance: the node lists ψ's columns
/// evaluate to on every example, framed by their lengths. LearnPredicate
/// and VerifyProgram read ψ only through these lists (atoms name a
/// column by index and apply node extractors to its listed nodes), so
/// every ψ with one key learns the same atoms and formula and verifies
/// alike; only the extractor cost of its own columns tells them apart.
/// The lists come from the run's extractor memo, which LearnPredicate
/// reads them from too.
std::string InstanceKey(const Examples& examples,
                        const std::vector<dsl::ColumnExtractor>& psi,
                        ExtractorMemoCache& memo) {
  std::string key;
  auto append = [&key](const std::vector<hdt::NodeId>& nodes) {
    const uint64_t n = nodes.size();
    key.append(reinterpret_cast<const char*>(&n), sizeof(n));
    key.append(reinterpret_cast<const char*>(nodes.data()),
               nodes.size() * sizeof(hdt::NodeId));
  };
  for (const dsl::ColumnExtractor& pi : psi) {
    for (const auto& nodes : memo.Columns(examples, pi)->values) {
      append(nodes);
    }
  }
  return key;
}

/// Ranking key: θ's atom count first, then semantic tightness and
/// structural cohesion, then θ's syntactic components.
struct RankedCost {
  int atoms;
  size_t excess;
  size_t spread;
  int col_constructs;
  int detail;

  auto operator<=>(const RankedCost&) const = default;
  static RankedCost Max() {
    return RankedCost{std::numeric_limits<int>::max(), SIZE_MAX, SIZE_MAX,
                      std::numeric_limits<int>::max(),
                      std::numeric_limits<int>::max()};
  }
};

}  // namespace

Result<SynthesisResult> LearnTransformation(const Examples& examples,
                                            const SynthesisOptions& opts) {
  MITRA_SPAN(span_learn, "synth/learn_transformation");
  // Per-run metrics = global-registry delta across this call (exact for
  // single-run callers; see SynthesisStats::metrics).
  obs::MetricsSnapshot metrics_before = obs::SnapshotMetrics();
  auto start = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  if (examples.empty()) {
    return Status::InvalidArgument("no examples provided");
  }
  const size_t k = examples[0].table->NumCols();
  if (k == 0) {
    return Status::InvalidArgument("output table has no columns");
  }
  for (const Example& e : examples) {
    if (e.table->NumCols() != k) {
      return Status::InvalidArgument(
          "all output examples must have the same number of columns");
    }
  }

  // Resource governance: one governor per run, shared by every phase and
  // every worker thread. An external governor (migrator rungs) takes
  // precedence; otherwise one is created from opts.limits with the legacy
  // time_limit_seconds as its deadline.
  std::optional<common::Governor> owned_gov;
  common::Governor* gov = opts.governor;
  if (gov == nullptr) {
    common::ResourceLimits limits = opts.limits;
    if (!limits.has_deadline()) {
      limits.time_limit_seconds = opts.time_limit_seconds;
    }
    owned_gov.emplace(limits);
    gov = &*owned_gov;
  }
  MITRA_GOV_CHECK(gov, "synth/start");

  SynthesisResult best;
  RankedCost best_cost = RankedCost::Max();
  bool found = false;
  SynthesisStats stats;

  const unsigned threads =
      opts.num_threads == 0
          ? common::ThreadPool::HardwareThreads()
          : static_cast<unsigned>(std::max(1, opts.num_threads));
  std::optional<common::ThreadPool> pool_storage;
  common::ThreadPool* tpool = nullptr;
  if (threads > 1) {
    pool_storage.emplace(threads);
    tpool = &*pool_storage;
  }

  // Phase 1: column extractors (Alg. 1 lines 4-5). The k learners are
  // independent and run as one ParallelForStatus, inline without a pool.
  // Each gets its own ColSymbolPool, which is safe because
  // EnumerateAcceptedPrograms orders symbols by content, not by interned
  // id, so per-column pools yield the same candidate lists as a shared
  // pool. Every column is learned, past a failing one too, so Phase 1
  // does the same work at every thread count; the error is the first
  // failing column's in column order, else the token's cause.
  ColumnLearnOptions copts = opts.column;
  copts.dfa.governor = gov;
  copts.enumerate.governor = gov;
  std::vector<std::vector<dsl::ColumnExtractor>> candidates(k);
  {
    MITRA_SPAN(span_phase1, "synth/phase1");
    std::vector<Status> column_status(k);
    // Bodies return OK, so the loop's own status can only be the token's
    // cause, which is checked below once no column failed.
    (void)common::ParallelForStatus(
        tpool, k,
        [&](size_t j) -> Status {
          ColSymbolPool col_pool;
          auto learned = LearnColumnExtractors(
              examples, static_cast<int>(j), &col_pool, copts);
          if (learned.ok()) {
            candidates[j] = std::move(learned).value();
          } else {
            column_status[j] = learned.status();
          }
          return Status::OK();
        },
        gov->token());
    for (const Status& st : column_status) MITRA_RETURN_IF_ERROR(st);
    if (gov->token()->cancelled()) return gov->token()->cause();
  }
  MITRA_COUNT("synth/phase1/columns", k);
  for (size_t j = 0; j < k; ++j) {
    stats.candidates_per_column.push_back(candidates[j].size());
    MITRA_COUNT("synth/phase1/column_candidates", candidates[j].size());
  }

  // Phase 2: iterate ψ ∈ Π1 × … × Πk cheapest-first (Alg. 1 lines 8-12).
  // Best-first frontier over index vectors ordered by total construct
  // count; candidates[j] are already shortest-first.
  struct Combo {
    int total_cost;
    std::vector<size_t> idx;
    bool operator>(const Combo& o) const { return total_cost > o.total_cost; }
  };
  auto combo_cost = [&](const std::vector<size_t>& idx) {
    int c = 0;
    for (size_t j = 0; j < k; ++j) {
      c += candidates[j][idx[j]].NumConstructs();
    }
    return c;
  };
  std::priority_queue<Combo, std::vector<Combo>, std::greater<>> frontier;
  std::set<std::vector<size_t>> enqueued;
  std::vector<size_t> zero(k, 0);
  frontier.push(Combo{combo_cost(zero), zero});
  enqueued.insert(zero);

  // Cross-candidate memoization: consecutive ψ share almost all column
  // extractors, so EvalColumn results, enumerated node extractors and
  // target facts are cached across combos (see extractor_memo.h). Scoped
  // to this call; purely a performance device.
  ExtractorMemoCache memo;
  PredicateLearnOptions popts = opts.predicate;
  // One governor pointer for the whole run: the memo cache requires
  // identical options across combos, and a shared token is what makes a
  // single overrun stop every in-flight sibling.
  popts.universe.governor = gov;
  popts.universe.node_enum.governor = gov;
  popts.eval.governor = gov;

  // The expected row sets, built once (they are invariant across
  // candidates; hoisted out of the per-combo verification).
  std::vector<hdt::Table> want_sets;
  want_sets.reserve(examples.size());
  for (const Example& e : examples) want_sets.push_back(RowSet(*e.table));

  auto psi_of = [&](const std::vector<size_t>& idx) {
    std::vector<dsl::ColumnExtractor> psi;
    psi.reserve(k);
    for (size_t j = 0; j < k; ++j) psi.push_back(candidates[j][idx[j]]);
    return psi;
  };

  /// One distinct predicate-learning instance (see InstanceKey): what
  /// LearnPredicate and VerifyProgram decide for every ψ with its key.
  /// Each instance is learned once per run, with the ψ that met it first.
  struct Instance {
    std::vector<dsl::ColumnExtractor> psi;
    Status failure;  ///< non-OK when LearnPredicate failed
    size_t universe_size = 0;
    bool verified = false;
    std::vector<dsl::Atom> atoms;  ///< set iff verified
    dsl::Dnf formula;
    size_t excess = 0, spread = 0;
    /// A tried combo has taken this instance in the merge loop.
    bool merged = false;
  };
  std::vector<Instance> instances;
  std::unordered_map<std::string, size_t> instance_of;  // key → index
  constexpr size_t kNoInstance = SIZE_MAX;

  Status last_failure = Status::SynthesisFailure("no table extractor tried");
  const size_t wave_cap = tpool ? static_cast<size_t>(tpool->size()) * 2 : 1;
  bool done = false;
  MITRA_SPAN(span_phase2, "synth/phase2");
  while (!done && !frontier.empty() &&
         stats.table_extractors_tried < opts.max_table_extractors) {
    // Pop a wave of combos. Successors are enqueued at pop time and
    // evaluation never pushes, so the pop/push stream is independent of
    // evaluation results: waves replay the sequential frontier order
    // exactly, whatever the wave size. The wave is additionally bounded
    // by the remaining tried/consistent budgets: each combo yields at
    // most one consistent program, so popping more than the remaining
    // consistent budget guarantees discarded work past the stopping
    // point (costly when predicate learning is expensive).
    const size_t budget_cap = std::max<size_t>(
        1, std::min(
               opts.max_table_extractors - stats.table_extractors_tried,
               opts.max_consistent_programs -
                   stats.table_extractors_consistent));
    std::vector<Combo> wave;
    std::vector<size_t> wave_instance;  // kNoInstance: evaluation skipped
    std::vector<size_t> to_learn;       // instances first met in this wave
    while (wave.size() < std::min(wave_cap, budget_cap) &&
           !frontier.empty()) {
      Combo combo = frontier.top();
      frontier.pop();
      // Enqueue successors (increment one column's candidate index).
      for (size_t j = 0; j < k; ++j) {
        if (combo.idx[j] + 1 < candidates[j].size()) {
          std::vector<size_t> next = combo.idx;
          ++next[j];
          if (enqueued.insert(next).second) {
            frontier.push(Combo{combo_cost(next), std::move(next)});
          }
        }
      }
      // A combo prunable against the pre-wave incumbent stays prunable
      // at merge time (the prune condition is monotone in best_cost), so
      // its evaluation can be skipped outright — the merge step below
      // re-derives the same `continue`. Any other combo takes the
      // instance of its key, which is learned in this wave unless an
      // earlier combo already met it.
      size_t inst = kNoInstance;
      if (!(found && best_cost.atoms == 0 && best_cost.excess == 0 &&
            combo.total_cost >= best_cost.col_constructs)) {
        std::vector<dsl::ColumnExtractor> psi = psi_of(combo.idx);
        auto [it, fresh] = instance_of.try_emplace(
            InstanceKey(examples, psi, memo), instances.size());
        if (fresh) {
          to_learn.push_back(instances.size());
          instances.emplace_back().psi = std::move(psi);
        }
        inst = it->second;
      }
      wave_instance.push_back(inst);
      wave.push_back(std::move(combo));
    }
    MITRA_COUNT("synth/phase2/waves", 1);
    MITRA_HISTOGRAM("synth/phase2/wave_size", wave.size());

    // Learn the wave's new instances on the pool. Evaluation is
    // speculative: pruning and stopping decisions are re-applied at merge
    // time below, where a late combo's result may simply be discarded —
    // wasted work under contention, never a changed result.
    // Evaluation failures are captured per instance (not returned) so the
    // merge below replays the sequential decision order; the token still
    // short-circuits unclaimed instances once the governor trips.
    Status wave_status = common::ParallelForStatus(
        tpool, to_learn.size(), [&](size_t i) -> Status {
      Instance& in = instances[to_learn[i]];
      auto learned = LearnPredicate(examples, in.psi, memo, popts);
      if (!learned.ok()) {
        in.failure = learned.status();
        return Status::OK();
      }
      in.universe_size = learned->universe_size;
      dsl::Program p;
      p.columns = in.psi;
      p.atoms = std::move(learned->atoms);
      p.formula = std::move(learned->formula);
      if (!VerifyProgram(examples, want_sets, p, popts.eval, &in.excess,
                         &in.spread)) {
        return Status::OK();
      }
      in.verified = true;
      in.atoms = std::move(p.atoms);
      in.formula = std::move(p.formula);
      return Status::OK();
        },
        gov->token());
    // A non-OK wave status can only be the token's cancellation cause
    // (bodies return OK); the merge loop below surfaces it in pop order.
    (void)wave_status;

    // Merge in pop order, replaying the sequential loop's decisions
    // (budget caps, time limit, prune, ranking) combo by combo.
    for (size_t i = 0; i < wave.size(); ++i) {
      if (stats.table_extractors_tried >= opts.max_table_extractors) {
        done = true;
        break;
      }
      // Budget/deadline/cancellation: with a solution in hand, stop and
      // return it (the paper's any-time behaviour); otherwise surface the
      // governor's cause (which budget, which site) as the run's error.
      Status gov_status = gov->Check("synth/merge");
      if (!gov_status.ok()) {
        if (found) {
          done = true;
          break;
        }
        return gov_status;
      }
      // Every combo that reaches this point is "enumerated"; it is then
      // either pruned (cost prune, predicate failure, failed verification)
      // or accepted, so pruned + accepted == enumerated holds exactly.
      // These are counted in the merge loop — which replays the
      // sequential pop order whatever the thread count — so they are
      // bit-identical at --threads=1 and --threads=8.
      MITRA_COUNT("synth/phase2/candidates_enumerated", 1);
      // Prune: even a predicate-free program over this ψ cannot beat the
      // incumbent when its extractor cost alone is not smaller.
      if (found && best_cost.atoms == 0 && best_cost.excess == 0 &&
          wave[i].total_cost >= best_cost.col_constructs) {
        MITRA_COUNT("synth/phase2/candidates_pruned", 1);
        continue;
      }
      ++stats.table_extractors_tried;

      // Each tried combo takes its instance's outcome. The first tried
      // combo of an instance counts as distinct, later ones as shared;
      // counted here, in pop order, so the split is the same at any
      // thread count (wave formation meets instances speculatively).
      Instance& in = instances[wave_instance[i]];
      if (in.merged) {
        MITRA_COUNT("synth/phase2/instances_shared", 1);
      } else {
        MITRA_COUNT("synth/phase2/instances_distinct", 1);
        in.merged = true;
      }
      if (!in.failure.ok()) {
        last_failure = in.failure;
        MITRA_COUNT("synth/phase2/candidates_pruned", 1);
        continue;
      }
      stats.max_universe_size =
          std::max(stats.max_universe_size, in.universe_size);
      if (!in.verified) {
        last_failure = Status::SynthesisFailure(
            "candidate program failed end-to-end verification");
        MITRA_COUNT("synth/phase2/candidates_pruned", 1);
        continue;
      }
      MITRA_COUNT("synth/phase2/candidates_accepted", 1);
      ++stats.table_extractors_consistent;
      dsl::Program program;
      program.columns = psi_of(wave[i].idx);
      program.atoms = in.atoms;
      program.formula = in.formula;
      dsl::Cost cost = dsl::ProgramCost(program);
      RankedCost ranked{cost.atoms, in.excess, in.spread,
                        cost.col_constructs, cost.detail};
      if (ranked < best_cost) {
        best_cost = ranked;
        best.program = std::move(program);
        found = true;
      }
      if (stats.table_extractors_consistent >= opts.max_consistent_programs) {
        done = true;
        break;
      }
    }
  }

  stats.memo_hits = memo.hits();
  stats.memo_misses = memo.misses();
  stats.seconds = elapsed();
  if (owned_gov) stats.usage = gov->Usage();
  stats.metrics = obs::SnapshotDelta(metrics_before);
  if (!found) {
    // A tripped governor (budget overrun, cancellation) outranks the
    // generic synthesis failure: the caller must see kResourceExhausted,
    // not a "no program found" that merely reflects truncated search.
    if (gov->token()->cancelled()) {
      return gov->token()->cause();
    }
    return Status::SynthesisFailure(
        "no DSL program consistent with the examples was found (last "
        "failure: " +
        last_failure.message() + ")");
  }
  best.stats = std::move(stats);
  best.stats.seconds = elapsed();
  return best;
}

Result<SynthesisResult> LearnTransformation(const hdt::Hdt& tree,
                                            const hdt::Table& table,
                                            const SynthesisOptions& opts) {
  Examples examples{Example{&tree, &table}};
  return LearnTransformation(examples, opts);
}

hdt::Table RowSet(const hdt::Table& table) {
  hdt::Table set = table;
  set.Dedup();
  set.SortRows();
  return set;
}

Result<std::vector<dsl::NodeTuple>> MatchRowSet(const hdt::Hdt& tree,
                                                const dsl::Program& p,
                                                const hdt::Table& want_set,
                                                const dsl::EvalOptions& eval) {
  MITRA_ASSIGN_OR_RETURN(std::vector<dsl::NodeTuple> tuples,
                         dsl::EvalProgramNodeTuples(tree, p, eval));
  hdt::Table got(p.columns.size());
  for (const dsl::NodeTuple& t : tuples) {
    MITRA_RETURN_IF_ERROR(dsl::AppendProjectedRow(tree, t, &got));
  }
  got.Dedup();
  got.SortRows();
  if (got.rows() != want_set.rows()) {
    return Status::SynthesisFailure(
        "program output differs from the example's rows");
  }
  return tuples;
}

namespace {

/// Enumerates all size-`k` index subsets of [0, m), lexicographically.
void ForEachSubset(size_t m, size_t k,
                   const std::function<bool(const std::vector<size_t>&)>& fn) {
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  while (true) {
    if (!fn(idx)) return;
    // Advance.
    size_t i = k;
    while (i > 0) {
      --i;
      if (idx[i] + (k - i) < m) {
        ++idx[i];
        for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) return;
    }
  }
}

}  // namespace

Result<BestEffortResult> LearnBestEffortTransformation(
    const Examples& examples, const SynthesisOptions& opts) {
  if (examples.empty()) {
    return Status::InvalidArgument("no examples provided");
  }
  const size_t m = examples.size();
  constexpr size_t kMaxAttempts = 64;
  size_t attempts = 0;
  Status last = Status::SynthesisFailure("no subset attempted");

  for (size_t size = m; size >= 1; --size) {
    std::optional<BestEffortResult> found;
    ForEachSubset(m, size, [&](const std::vector<size_t>& idx) {
      if (++attempts > kMaxAttempts) return false;
      Examples subset;
      subset.reserve(idx.size());
      for (size_t i : idx) subset.push_back(examples[i]);
      auto result = LearnTransformation(subset, opts);
      if (!result.ok()) {
        last = result.status();
        return true;  // next subset
      }
      BestEffortResult best;
      best.program = std::move(result->program);
      best.stats = std::move(result->stats);
      // The program may satisfy left-out examples too.
      for (size_t i = 0; i < m; ++i) {
        if (MatchRowSet(*examples[i].tree, best.program,
                        RowSet(*examples[i].table), opts.predicate.eval)
                .ok()) {
          best.satisfied.push_back(i);
        }
      }
      found = std::move(best);
      return false;  // stop at the first (largest) satisfiable subset
    });
    if (found) return std::move(*found);
    if (attempts > kMaxAttempts) break;
  }
  return Status(last.code(),
                "no DSL program satisfies any explored example subset "
                "(last: " +
                    last.message() + ")");
}

}  // namespace mitra::core
