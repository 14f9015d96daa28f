#include "core/executor.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <set>
#include <unordered_map>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace mitra::core {

namespace {

using dsl::Atom;
using dsl::CmpOp;
using dsl::Literal;

/// Max column referenced by an atom — the loop level where it resolves.

bool IsUnary(const Atom& a) {
  return a.rhs_is_const || a.lhs_col == a.rhs_col;
}

/// Join key for equality semantics (Fig. 7): identical keys ⇔ the Eq atom
/// holds between the two nodes. A key is (kind, payload), with no
/// formatting or allocation:
///  - kind 0, internal node: payload is the node id (identity);
///  - kind 1, numeric leaf: payload is the parsed double's bit pattern, so
///    "3" and "3.0" collide (ParseNumber only yields finite values, so
///    there is no NaN != NaN hazard; -0.0 is keyed as 0.0, since "-0" and
///    "0" compare equal);
///  - kind 2, non-numeric leaf: payload is the dictionary id; dataless
///    leaves and ""-valued leaves share a sentinel, as both compare equal
///    to "".
/// Distinct kinds never match, mirroring the semantics' "mixed comparison
/// is false".
struct U128Key {
  uint64_t kind;
  uint64_t payload;
  bool operator==(const U128Key&) const = default;
};

struct U128KeyHash {
  size_t operator()(const U128Key& k) const noexcept {
    return static_cast<size_t>(
        HashCombine(k.kind + 0x51ed270b9a3e29b5ULL, k.payload));
  }
};

U128Key JoinKey(const hdt::Hdt& tree, hdt::NodeId n) {
  if (!tree.IsLeaf(n)) {
    return {0, static_cast<uint64_t>(static_cast<uint32_t>(n))};
  }
  std::string_view data = tree.Data(n);
  if (data.empty()) return {2, ~uint64_t{0}};
  hdt::DataId d = tree.GetDataId(n);
  if (const std::optional<double>& num = tree.DictNumber(d)) {
    const double value = *num == 0.0 ? 0.0 : *num;
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return {1, bits};
  }
  return {2, static_cast<uint64_t>(static_cast<uint32_t>(d))};
}

/// Hash-join index over node keys (integer compares, one dictionary
/// lookup per probe). Built single-threaded, then probed concurrently
/// from the parallel enumeration (Find is const).
class JoinIndex {
 public:
  void Add(const hdt::Hdt& tree, hdt::NodeId key_node, hdt::NodeId value) {
    MITRA_COUNT("exec/join/keys", 1);
    by_key_[JoinKey(tree, key_node)].push_back(value);
  }

  const std::vector<hdt::NodeId>* Find(const hdt::Hdt& tree,
                                       hdt::NodeId key_node) const {
    auto it = by_key_.find(JoinKey(tree, key_node));
    return it == by_key_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<U128Key, std::vector<hdt::NodeId>, U128KeyHash> by_key_;
};

}  // namespace

const std::vector<hdt::NodeId>* ColumnCache::Lookup(
    const dsl::ColumnExtractor& pi) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(dsl::ToString(pi));
  if (it == cache_.end()) {
    MITRA_COUNT("exec/column_cache/misses", 1);
    return nullptr;
  }
  ++hits_;
  MITRA_COUNT("exec/column_cache/hits", 1);
  return &it->second;
}

const std::vector<hdt::NodeId>* ColumnCache::Insert(
    const dsl::ColumnExtractor& pi, std::vector<hdt::NodeId> nodes) {
  std::lock_guard<std::mutex> lock(mu_);
  // First-wins: never overwrite, so pointers handed out earlier (possibly
  // held by a concurrent executor) stay valid and bound to the same value.
  auto [it, inserted] = cache_.try_emplace(dsl::ToString(pi), std::move(nodes));
  return &it->second;
}

size_t ColumnCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

size_t ColumnCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

OptimizedExecutor::OptimizedExecutor(const dsl::Program& program)
    : program_(program) {
  for (const auto& clause : program_.formula.clauses) {
    PlanClause(clause);
  }
}

void OptimizedExecutor::PlanClause(const std::vector<Literal>& clause) {
  const size_t k = program_.columns.size();
  ClausePlan plan;
  plan.literals = clause;

  auto is_join = [&](const Literal& lit) {
    const Atom& a = program_.atoms[lit.atom];
    return !lit.negated && a.op == CmpOp::kEq && !a.rhs_is_const &&
           a.lhs_col != a.rhs_col;
  };

  // Column order: walk the positive-equality join graph so every level
  // after the first connected one can be driven by a hash probe.
  std::vector<int> order;
  std::vector<bool> bound(k, false);
  auto bind_next = [&]() {
    // Prefer the lowest-index unbound column joined to a bound one.
    if (!order.empty()) {
      for (size_t c = 0; c < k; ++c) {
        if (bound[c]) continue;
        for (const Literal& lit : clause) {
          if (!is_join(lit)) continue;
          const Atom& a = program_.atoms[lit.atom];
          int other = a.lhs_col == static_cast<int>(c)   ? a.rhs_col
                      : a.rhs_col == static_cast<int>(c) ? a.lhs_col
                                                         : -1;
          if (other >= 0 && bound[static_cast<size_t>(other)]) {
            return static_cast<int>(c);
          }
        }
      }
    }
    for (size_t c = 0; c < k; ++c) {
      if (!bound[c]) return static_cast<int>(c);
    }
    return -1;
  };
  for (size_t l = 0; l < k; ++l) {
    int c = bind_next();
    order.push_back(c);
    bound[static_cast<size_t>(c)] = true;
  }

  // Assign literals to the first level at which all their columns are
  // bound; pick one join literal per level as the hash-join driver.
  std::vector<int> level_of_col(k, 0);
  for (size_t l = 0; l < k; ++l) {
    level_of_col[static_cast<size_t>(order[l])] = static_cast<int>(l);
  }
  plan.levels.resize(k);
  for (size_t l = 0; l < k; ++l) plan.levels[l].column = order[l];

  for (size_t li = 0; li < clause.size(); ++li) {
    const Atom& a = program_.atoms[clause[li].atom];
    int level;
    if (IsUnary(a)) {
      level = level_of_col[static_cast<size_t>(a.lhs_col)];
      plan.levels[static_cast<size_t>(level)].unary_literals.push_back(
          static_cast<int>(li));
      continue;
    }
    level = std::max(level_of_col[static_cast<size_t>(a.lhs_col)],
                     level_of_col[static_cast<size_t>(a.rhs_col)]);
    LevelPlan& lp = plan.levels[static_cast<size_t>(level)];
    if (is_join(clause[li]) && !lp.has_driver) {
      // The side bound *earlier* supplies the probe key.
      bool lhs_earlier = level_of_col[static_cast<size_t>(a.lhs_col)] <
                         level_of_col[static_cast<size_t>(a.rhs_col)];
      lp.has_driver = true;
      lp.driver.literal_index = static_cast<int>(li);
      lp.driver.probe_col = lhs_earlier ? a.lhs_col : a.rhs_col;
      lp.driver.probe_is_lhs = lhs_earlier;
    } else {
      lp.check_literals.push_back(static_cast<int>(li));
    }
  }
  clauses_.push_back(std::move(plan));
}

Result<std::vector<dsl::NodeTuple>> OptimizedExecutor::ExecuteNodes(
    const hdt::Hdt& tree, const ExecuteOptions& opts) const {
  MITRA_SPAN(span, "exec/execute_nodes");
  const size_t k = program_.columns.size();
  if (k > dsl::kMaxEvalColumns) {
    return Status::ResourceExhausted(
        "program has " + std::to_string(k) + " columns (limit " +
        std::to_string(dsl::kMaxEvalColumns) + ")");
  }
  MITRA_GOV_CHECK(opts.governor, "exec/start");
  // Every atom's node extractors, bound to this tree's tag ids once per
  // call; the pool threads below only read them.
  const std::vector<dsl::BoundAtom> atoms =
      dsl::BindAtoms(tree, program_.atoms);
  // Memoized column evaluation: identical extractors share one result —
  // within this program through a call-local cache, and across programs
  // when the caller supplies one (the paper's §9 cross-table memoization).
  ColumnCache local_cache;
  ColumnCache& cache =
      opts.column_cache != nullptr ? *opts.column_cache : local_cache;
  std::vector<const std::vector<hdt::NodeId>*> columns(k);
  for (size_t i = 0; i < k; ++i) {
    columns[i] = cache.Lookup(program_.columns[i]);
    if (columns[i] == nullptr) {
      columns[i] = cache.Insert(program_.columns[i],
                                dsl::EvalColumn(tree, program_.columns[i]));
    }
  }

  std::vector<dsl::NodeTuple> out;
  std::set<dsl::NodeTuple> seen;  // dedup across DNF clauses
  const bool multi_clause = clauses_.size() > 1;

  // A program with constant-true formula (no clauses with literals but one
  // empty clause) or constant-false (no clauses).
  if (program_.formula.clauses.empty()) return out;

  // Dictionary-memoized constant predicates: each unary `path(col) op
  // const` literal compares against a given distinct leaf value once;
  // later occurrences are a per-(atom, dict id) table lookup. Constant
  // atoms are always unary (IsUnary), so they are only evaluated in the
  // sequential filter phase below — the memo needs no synchronization.
  std::vector<std::vector<int8_t>> const_truth(program_.atoms.size());
  auto eval_unary_literal = [&](const Literal& lit,
                                const dsl::NodeTuple& probe) {
    const dsl::BoundAtom& bound = atoms[static_cast<size_t>(lit.atom)];
    const Atom& a = *bound.atom;
    bool v;
    if (a.rhs_is_const) {
      v = false;
      if (a.lhs_col >= 0 && static_cast<size_t>(a.lhs_col) < probe.size()) {
        hdt::NodeId n1 = dsl::EvalNodeExtractor(
            tree, bound.lhs_path, probe[static_cast<size_t>(a.lhs_col)]);
        if (n1 != hdt::kInvalidNode && tree.HasData(n1)) {
          hdt::DataId d = tree.GetDataId(n1);
          std::vector<int8_t>& memo =
              const_truth[static_cast<size_t>(lit.atom)];
          if (memo.empty()) memo.assign(tree.DictSize(), -1);
          int8_t& m = memo[static_cast<size_t>(d)];
          if (m < 0) m = dsl::ConstCmpHolds(tree, bound, d) ? 1 : 0;
          v = m == 1;
        }
      }
    } else {
      v = dsl::EvalAtom(tree, bound, probe);
    }
    return lit.negated ? !v : v;
  };

  for (const ClausePlan& plan : clauses_) {
    // Per-clause filtered candidate lists (unary literals applied once),
    // indexed by *column*. A unary literal reads only its own column of
    // the one probe tuple.
    std::vector<std::vector<hdt::NodeId>> filtered(k);
    dsl::NodeTuple probe(k, hdt::kInvalidNode);
    bool clause_empty = false;
    for (size_t l = 0; l < k && !clause_empty; ++l) {
      const LevelPlan& lp = plan.levels[l];
      size_t col = static_cast<size_t>(lp.column);
      for (hdt::NodeId n : *columns[col]) {
        bool pass = true;
        probe[col] = n;
        for (int li : lp.unary_literals) {
          const Literal& lit = plan.literals[static_cast<size_t>(li)];
          if (!eval_unary_literal(lit, probe)) {
            pass = false;
            break;
          }
        }
        if (pass) filtered[col].push_back(n);
      }
      probe[col] = hdt::kInvalidNode;
      if (filtered[col].empty()) clause_empty = true;
    }
    if (clause_empty) continue;

    // Hash-join indexes: per level with a driver, key → candidate nodes.
    std::vector<JoinIndex> index(k);
    for (size_t l = 0; l < k; ++l) {
      const LevelPlan& lp = plan.levels[l];
      if (!lp.has_driver) continue;
      const Literal& lit =
          plan.literals[static_cast<size_t>(lp.driver.literal_index)];
      const dsl::BoundAtom& a = atoms[static_cast<size_t>(lit.atom)];
      // The side of the atom bound at *this* level.
      const dsl::BoundNodeExtractor& my_path =
          lp.driver.probe_is_lhs ? a.rhs_path : a.lhs_path;
      for (hdt::NodeId n : filtered[static_cast<size_t>(lp.column)]) {
        hdt::NodeId m = dsl::EvalNodeExtractor(tree, my_path, n);
        if (m == hdt::kInvalidNode) continue;  // atom would be false
        index[l].Add(tree, m, n);
      }
    }

    // Nested-loop enumeration with early checks. `enumerate_range` runs
    // the loop nest with the outermost level restricted to candidates
    // [first, last); `emit` receives each surviving tuple and returns
    // false to stop the enumeration. Returns true when the range was
    // enumerated to completion. Reads only immutable clause state, so
    // disjoint ranges are safe to enumerate concurrently.
    auto enumerate_range =
        [&](size_t first, size_t last,
            const std::function<bool(const dsl::NodeTuple&)>& emit,
            Status* gov_status) {
      dsl::NodeTuple tuple(k, hdt::kInvalidNode);
      bool stopped = false;
      uint64_t iters = 0;
      // Candidate-loop iterations across all levels; accumulated locally
      // and flushed once per range so the loop nest pays no atomic per row.
      uint64_t scanned = 0;
      std::function<void(size_t)> rec = [&](size_t level) {
        if (stopped) return;
        if (opts.governor != nullptr && (++iters & 0xFFF) == 0) {
          Status s = opts.governor->Check("exec/scan");
          if (!s.ok()) {
            *gov_status = std::move(s);
            stopped = true;
            return;
          }
        }
        if (level == k) {
          if (!emit(tuple)) stopped = true;
          return;
        }
        const LevelPlan& lp = plan.levels[level];
        const std::vector<hdt::NodeId>* cands =
            &filtered[static_cast<size_t>(lp.column)];
        if (lp.has_driver) {
          const Literal& lit =
              plan.literals[static_cast<size_t>(lp.driver.literal_index)];
          const dsl::BoundAtom& a = atoms[static_cast<size_t>(lit.atom)];
          const dsl::BoundNodeExtractor& probe_path =
              lp.driver.probe_is_lhs ? a.lhs_path : a.rhs_path;
          hdt::NodeId bound = tuple[static_cast<size_t>(lp.driver.probe_col)];
          hdt::NodeId m = dsl::EvalNodeExtractor(tree, probe_path, bound);
          if (m == hdt::kInvalidNode) return;  // equality cannot hold
          const std::vector<hdt::NodeId>* hit = index[level].Find(tree, m);
          if (hit == nullptr) return;
          cands = hit;
        }
        // Drivers are never planned at level 0 (a join resolves where its
        // *later* column binds, level ≥ 1), so the range restriction below
        // always applies to the full filtered candidate list.
        const size_t begin = level == 0 ? first : 0;
        const size_t end = level == 0 ? last : cands->size();
        for (size_t ci = begin; ci < end; ++ci) {
          ++scanned;
          tuple[static_cast<size_t>(lp.column)] = (*cands)[ci];
          bool pass = true;
          for (int li : lp.check_literals) {
            const Literal& lit = plan.literals[static_cast<size_t>(li)];
            bool v = dsl::EvalAtom(
                tree, atoms[static_cast<size_t>(lit.atom)], tuple);
            if (lit.negated) v = !v;
            if (!v) {
              pass = false;
              break;
            }
          }
          if (pass) rec(level + 1);
          if (stopped) return;
        }
        tuple[static_cast<size_t>(lp.column)] = hdt::kInvalidNode;
      };
      rec(0);
      MITRA_COUNT("exec/rows/scanned", scanned);
      (void)scanned;  // the no-op build compiles the flush away
      return !stopped;
    };

    // Exact sequential semantics: dedup across clauses, overflow when one
    // clause emits more than max_output_rows (post-dedup) rows.
    auto run_sequential = [&]() {
      uint64_t emitted = 0;
      Status overflow = Status::OK();
      Status gov_status = Status::OK();
      enumerate_range(
          0, filtered[static_cast<size_t>(plan.levels[0].column)].size(),
          [&](const dsl::NodeTuple& t) {
            if (multi_clause && !seen.insert(t).second) return true;
            // Charge emitted rows in batches of 256 (deterministic: the
            // charge depends only on the emit count, not on scheduling).
            if (opts.governor != nullptr && (emitted & 0xFF) == 0) {
              Status s = opts.governor->ChargeRows(256, "exec/emit");
              if (!s.ok()) {
                overflow = std::move(s);
                return false;
              }
            }
            out.push_back(t);
            if (++emitted > opts.max_output_rows) {
              overflow =
                  Status::ResourceExhausted("output exceeds max_output_rows");
              return false;
            }
            return true;
          },
          &gov_status);
      MITRA_COUNT("exec/rows/emitted", emitted);
      if (!gov_status.ok()) return gov_status;
      return overflow;
    };

    const size_t n0 =
        filtered[static_cast<size_t>(plan.levels[0].column)].size();
    common::ThreadPool* pool = opts.pool;
    if (pool == nullptr || pool->size() <= 1 || n0 < 2) {
      MITRA_RETURN_IF_ERROR(run_sequential());
      continue;
    }

    // Parallel path: chunk the outermost level into contiguous candidate
    // ranges; within a chunk the enumeration order is the sequential
    // order, so concatenating chunk outputs in range order reproduces the
    // sequential tuple sequence exactly (dedup and the overflow cap are
    // applied during the ordered merge below, replaying the sequential
    // decisions). Each chunk stops at max_output_rows + 1 tuples — enough
    // to prove overflow without unbounded memory.
    const size_t num_chunks =
        std::min(n0, static_cast<size_t>(pool->size()) * 4);
    const uint64_t chunk_cap = opts.max_output_rows + 1;
    std::vector<std::vector<dsl::NodeTuple>> chunk_out(num_chunks);
    std::vector<char> complete(num_chunks, 1);
    common::CancelToken* token =
        opts.governor != nullptr ? opts.governor->token() : nullptr;
    MITRA_RETURN_IF_ERROR(common::ParallelForStatus(
        pool, num_chunks,
        [&](size_t c) -> Status {
          const size_t first = n0 * c / num_chunks;
          const size_t last = n0 * (c + 1) / num_chunks;
          Status gov_status = Status::OK();
          complete[c] = enumerate_range(
              first, last,
              [&](const dsl::NodeTuple& t) {
                if (opts.governor != nullptr &&
                    (chunk_out[c].size() & 0xFF) == 0) {
                  Status s = opts.governor->ChargeRows(256, "exec/emit");
                  if (!s.ok()) {
                    gov_status = std::move(s);
                    return false;
                  }
                }
                chunk_out[c].push_back(t);
                return static_cast<uint64_t>(chunk_out[c].size()) < chunk_cap;
              },
              &gov_status);
          return gov_status;
        },
        token));

    const bool any_truncated =
        std::find(complete.begin(), complete.end(), 0) != complete.end();
    if (multi_clause && any_truncated) {
      // Chunk truncation counts pre-dedup tuples, but the overflow cap is
      // post-dedup — inconclusive. Re-run this clause sequentially for
      // the exact answer (pathological case: a single clause enumerating
      // beyond max_output_rows duplicates).
      MITRA_RETURN_IF_ERROR(run_sequential());
      continue;
    }
    uint64_t emitted = 0;
    for (std::vector<dsl::NodeTuple>& chunk : chunk_out) {
      for (dsl::NodeTuple& t : chunk) {
        if (multi_clause && !seen.insert(t).second) continue;
        out.push_back(std::move(t));
        if (++emitted > opts.max_output_rows) {
          return Status::ResourceExhausted("output exceeds max_output_rows");
        }
      }
    }
    MITRA_COUNT("exec/rows/emitted", emitted);
    (void)emitted;
  }
  return out;
}

Result<hdt::Table> OptimizedExecutor::Execute(
    const hdt::Hdt& tree, const ExecuteOptions& opts) const {
  MITRA_ASSIGN_OR_RETURN(std::vector<dsl::NodeTuple> tuples,
                         ExecuteNodes(tree, opts));
  hdt::Table out(program_.columns.size());
  for (const dsl::NodeTuple& t : tuples) {
    MITRA_RETURN_IF_ERROR(out.AppendRow(dsl::ProjectData(tree, t)));
  }
  return out;
}

std::string OptimizedExecutor::DescribePlan() const {
  std::string out;
  for (size_t c = 0; c < clauses_.size(); ++c) {
    out += "clause " + std::to_string(c) + ":\n";
    const ClausePlan& plan = clauses_[c];
    for (size_t i = 0; i < plan.levels.size(); ++i) {
      const LevelPlan& lp = plan.levels[i];
      out += "  level " + std::to_string(i) + ": column " +
             std::to_string(lp.column) + ", scan " +
             dsl::ToString(
                 program_.columns[static_cast<size_t>(lp.column)]);
      if (!lp.unary_literals.empty()) {
        out += ", " + std::to_string(lp.unary_literals.size()) +
               " unary filter(s)";
      }
      if (lp.has_driver) {
        out += ", hash-join probe from column " +
               std::to_string(lp.driver.probe_col);
      }
      if (!lp.check_literals.empty()) {
        out += ", " + std::to_string(lp.check_literals.size()) + " check(s)";
      }
      out += "\n";
    }
  }
  if (clauses_.empty()) out = "constant-false formula: empty result\n";
  return out;
}

Result<hdt::Table> ExecuteOptimized(const hdt::Hdt& tree,
                                    const dsl::Program& program,
                                    const ExecuteOptions& opts) {
  OptimizedExecutor exec(program);
  return exec.Execute(tree, opts);
}

}  // namespace mitra::core
