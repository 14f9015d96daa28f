#include "core/executor.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <iterator>
#include <optional>
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

std::shared_ptr<const std::vector<hdt::NodeId>> ColumnCache::Column(
    const dsl::ColumnExtractor& pi) {
  common::Flight flight;
  std::shared_ptr<const std::vector<hdt::NodeId>> nodes = columns_.Get(
      dsl::ToString(pi), [&] { return dsl::EvalColumn(*tree_, pi); },
      &flight);
  if (flight == common::Flight::kOwned) {
    MITRA_COUNT("exec/column_cache/misses", 1);
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    MITRA_COUNT("exec/column_cache/hits", 1);
  }
  return nodes;
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
  if (opts.column_cache != nullptr && &opts.column_cache->tree() != &tree) {
    return Status::InvalidArgument(
        "column cache was built for another tree");
  }
  MITRA_GOV_CHECK(opts.governor, "exec/start");
  // Every atom's node extractors, bound to this tree's tag ids once per
  // call; the pool threads below only read them.
  const std::vector<dsl::BoundAtom> atoms =
      dsl::BindAtoms(tree, program_.atoms);
  // Memoized column evaluation: identical extractors share one result —
  // within this program through a call-local cache, and across programs
  // when the caller supplies one (the paper's §9 cross-table memoization).
  std::optional<ColumnCache> local_cache;
  ColumnCache& cache = opts.column_cache != nullptr
                           ? *opts.column_cache
                           : local_cache.emplace(tree);
  std::vector<std::shared_ptr<const std::vector<hdt::NodeId>>> columns(k);
  for (size_t i = 0; i < k; ++i) {
    columns[i] = cache.Column(program_.columns[i]);
  }

  std::vector<dsl::NodeTuple> out;
  // The tuples of earlier clauses, which a later clause drops.
  std::set<dsl::NodeTuple> seen;

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

  // One chunk per clause unless the pool can run chunks concurrently.
  const size_t max_chunks =
      opts.pool == nullptr || opts.pool->size() <= 1
          ? 1
          : static_cast<size_t>(opts.pool->size()) * 4;
  common::CancelToken* token =
      opts.governor != nullptr ? opts.governor->token() : nullptr;
  for (size_t clause = 0; clause < clauses_.size(); ++clause) {
    const ClausePlan& plan = clauses_[clause];
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
    // false to stop the enumeration. Reads only immutable clause state, so
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
    };

    // The outermost level is split into contiguous candidate ranges
    // (chunks) enumerated on the pool; within a chunk the enumeration
    // order is the loop nest's, so concatenating the chunks in range
    // order gives the same tuple sequence at every pool size. A chunk
    // drops tuples an earlier clause emitted (nothing writes `seen` while
    // a clause enumerates). A clause never emits one tuple twice, since
    // each level binds its own column from a duplicate-free candidate
    // list, so a chunk's count is post-dedup, and a chunk that stops at
    // max_output_rows + 1 tuples proves overflow.
    const size_t n0 =
        filtered[static_cast<size_t>(plan.levels[0].column)].size();
    const size_t num_chunks = std::min(n0, max_chunks);
    std::vector<std::vector<dsl::NodeTuple>> chunk_out(num_chunks);
    MITRA_RETURN_IF_ERROR(common::ParallelForStatus(
        opts.pool, num_chunks,
        [&](size_t c) -> Status {
          std::vector<dsl::NodeTuple>& rows = chunk_out[c];
          Status gov_status = Status::OK();
          enumerate_range(
              n0 * c / num_chunks, n0 * (c + 1) / num_chunks,
              [&](const dsl::NodeTuple& t) {
                if (seen.contains(t)) return true;
                // Rows are charged in batches of 256 per chunk.
                if (opts.governor != nullptr && (rows.size() & 0xFF) == 0) {
                  Status s = opts.governor->ChargeRows(256, "exec/emit");
                  if (!s.ok()) {
                    gov_status = std::move(s);
                    return false;
                  }
                }
                rows.push_back(t);
                return rows.size() <= opts.max_output_rows;
              },
              &gov_status);
          MITRA_COUNT("exec/rows/emitted", rows.size());
          return gov_status;
        },
        token));

    uint64_t emitted = 0;
    for (const std::vector<dsl::NodeTuple>& rows : chunk_out) {
      emitted += rows.size();
    }
    if (emitted > opts.max_output_rows) {
      return Status::ResourceExhausted("output exceeds max_output_rows");
    }
    const bool last_clause = clause + 1 == clauses_.size();
    for (std::vector<dsl::NodeTuple>& rows : chunk_out) {
      if (!last_clause) seen.insert(rows.begin(), rows.end());
      if (out.empty()) {
        out = std::move(rows);
      } else {
        out.insert(out.end(), std::make_move_iterator(rows.begin()),
                   std::make_move_iterator(rows.end()));
      }
    }
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
