#include "core/executor.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <ranges>
#include <span>

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

/// MurmurHash3's 64-bit finalizer: every input bit reaches the low bits a
/// power-of-two slot table keeps (a double's bit pattern has none of its
/// own there).
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t HashKey(const U128Key& k) {
  return Mix64(k.payload ^ Mix64(k.kind + 0x51ed270b9a3e29b5ULL));
}

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

constexpr uint32_t kNoSlot = UINT32_MAX;

/// The power-of-two slot count that keeps `n` entries at most half full.
size_t SlotCount(size_t n) { return std::bit_ceil(std::max<size_t>(2 * n, 16)); }

/// Hash-join index over node keys, flat: an open-addressing slot table
/// maps a key to its group, and the groups' values sit in one CSR array,
/// each group in candidate order. Build sizes everything from the
/// candidate count, so it makes a constant number of allocations, and
/// the slot table stays at most half full. Built single-threaded, then
/// probed concurrently from the chunked enumeration (Find is const).
class JoinIndex {
 public:
  /// Indexes each candidate `n` under JoinKey(path(n)), leaving out those
  /// whose path is ⊥ (the equality cannot hold for them).
  void Build(const hdt::Hdt& tree, const std::vector<hdt::NodeId>& candidates,
             const dsl::BoundNodeExtractor& path) {
    const size_t n = candidates.size();
    slots_.assign(SlotCount(n), kNoSlot);
    keys_.clear();
    keys_.reserve(n);
    // Pass 1: each candidate's group (kNoSlot when left out) and the
    // groups' sizes, counted at starts_[g + 2].
    std::vector<uint32_t> group_of(n, kNoSlot);
    starts_.reserve(n + 2);
    starts_.assign(2, 0);
    for (size_t i = 0; i < n; ++i) {
      const hdt::NodeId m = dsl::EvalNodeExtractor(tree, path, candidates[i]);
      if (m == hdt::kInvalidNode) continue;
      const U128Key key = JoinKey(tree, m);
      uint32_t& slot = slots_[Slot(key)];
      if (slot == kNoSlot) {
        slot = static_cast<uint32_t>(keys_.size());
        keys_.push_back(key);
        starts_.push_back(0);
      }
      group_of[i] = slot;
      ++starts_[slot + 2];
    }
    // Pass 2: starts_[g + 1] becomes group g's start, then its fill
    // cursor, which ends at group g + 1's start.
    for (size_t g = 2; g < starts_.size(); ++g) starts_[g] += starts_[g - 1];
    values_.resize(starts_.back());
    for (size_t i = 0; i < n; ++i) {
      if (group_of[i] != kNoSlot) {
        values_[starts_[group_of[i] + 1]++] = candidates[i];
      }
    }
    starts_.pop_back();
    MITRA_COUNT("exec/join/keys", values_.size());
  }

  /// The candidates indexed under `key_node`'s key, in candidate order.
  std::span<const hdt::NodeId> Find(const hdt::Hdt& tree,
                                    hdt::NodeId key_node) const {
    const uint32_t g = slots_[Slot(JoinKey(tree, key_node))];
    if (g == kNoSlot) return {};
    return {values_.data() + starts_[g], values_.data() + starts_[g + 1]};
  }

 private:
  /// The slot holding `key`'s group, or the empty slot where it goes
  /// (linear probing).
  size_t Slot(const U128Key& key) const {
    const size_t mask = slots_.size() - 1;
    size_t s = HashKey(key) & mask;
    while (slots_[s] != kNoSlot && !(keys_[slots_[s]] == key)) {
      s = (s + 1) & mask;
    }
    return s;
  }

  std::vector<uint32_t> slots_;  ///< group index, or kNoSlot
  std::vector<U128Key> keys_;    ///< per group
  /// Group g's values are values_[starts_[g], starts_[g + 1]).
  std::vector<uint32_t> starts_;
  std::vector<hdt::NodeId> values_;
};

/// The rows of a NodeTable as a set by content, for dropping the tuples
/// of earlier DNF clauses: an open-addressing table of row indices, built
/// once per clause and then only read (concurrently, by the chunks).
class RowSet {
 public:
  /// Holds every row of `table`, which must outlive the set unchanged.
  void Reset(const NodeTable& table) {
    table_ = &table;
    slots_.assign(SlotCount(table.size()), kNoSlot);
    for (size_t r = 0; r < table.size(); ++r) {
      uint32_t& slot = slots_[Slot(table[r])];
      if (slot == kNoSlot) slot = static_cast<uint32_t>(r);
    }
  }

  bool empty() const { return table_ == nullptr || table_->empty(); }

  bool Contains(std::span<const hdt::NodeId> row) const {
    return slots_[Slot(row)] != kNoSlot;
  }

 private:
  size_t Slot(std::span<const hdt::NodeId> row) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (hdt::NodeId n : row) h = Mix64(h ^ static_cast<uint32_t>(n));
    const size_t mask = slots_.size() - 1;
    size_t s = h & mask;
    while (slots_[s] != kNoSlot &&
           !std::ranges::equal((*table_)[slots_[s]], row)) {
      s = (s + 1) & mask;
    }
    return s;
  }

  const NodeTable* table_ = nullptr;
  std::vector<uint32_t> slots_;  ///< row index, or kNoSlot
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

std::vector<dsl::NodeTuple> NodeTable::ToTuples() const {
  std::vector<dsl::NodeTuple> out;
  out.reserve(size());
  for (size_t r = 0; r < size(); ++r) {
    out.emplace_back((*this)[r].begin(), (*this)[r].end());
  }
  return out;
}

Result<NodeTable> OptimizedExecutor::ExecuteNodes(
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
  NodeTable out{k, {}};
  // No columns: no tuples, as in the reference evaluator.
  if (k == 0) return out;
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

  // A program with constant-true formula (no clauses with literals but one
  // empty clause) or constant-false (no clauses).
  if (program_.formula.clauses.empty()) return out;

  // The tuples of earlier clauses, which a later clause drops.
  RowSet seen;

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
      filtered[col].reserve(columns[col]->size());
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
      index[l].Build(tree, filtered[static_cast<size_t>(lp.column)],
                     lp.driver.probe_is_lhs ? a.rhs_path : a.lhs_path);
    }

    // Nested-loop enumeration with early checks, as an explicit loop over
    // the levels. `enumerate_range` runs the loop nest with the outermost
    // level restricted to candidates [first, last) and hands each
    // surviving tuple to `emit`, which returns false to stop the
    // enumeration. It reads only immutable clause state, so disjoint
    // ranges are safe to enumerate concurrently. The governor is polled
    // every 4096 bindings that pass their level's checks.
    auto enumerate_range = [&](size_t first, size_t last,
                               auto&& emit) -> Status {
      dsl::NodeTuple tuple(k, hdt::kInvalidNode);
      // Each level's candidates and the next one to bind.
      std::vector<std::span<const hdt::NodeId>> cands(k);
      std::vector<size_t> next(k, 0);
      uint64_t iters = 0;
      // Candidate-loop iterations across all levels; accumulated locally
      // and flushed once per range so the loop nest pays no atomic per row.
      uint64_t scanned = 0;
      auto poll = [&]() -> Status {
        if (opts.governor != nullptr && (++iters & 0xFFF) == 0) {
          return opts.governor->Check("exec/scan");
        }
        return Status::OK();
      };
      Status st = poll();
      // Drivers are never planned at level 0 (a join resolves where its
      // *later* column binds, level ≥ 1), so the range restriction
      // always applies to the full filtered candidate list.
      cands[0] = std::span<const hdt::NodeId>(
                     filtered[static_cast<size_t>(plan.levels[0].column)])
                     .subspan(first, last - first);
      size_t level = 0;
      while (st.ok()) {
        const LevelPlan& lp = plan.levels[level];
        const size_t col = static_cast<size_t>(lp.column);
        if (next[level] == cands[level].size()) {
          tuple[col] = hdt::kInvalidNode;
          if (level == 0) break;
          --level;
          continue;
        }
        ++scanned;
        tuple[col] = cands[level][next[level]++];
        bool pass = true;
        for (int li : lp.check_literals) {
          const Literal& lit = plan.literals[static_cast<size_t>(li)];
          bool v =
              dsl::EvalAtom(tree, atoms[static_cast<size_t>(lit.atom)], tuple);
          if (lit.negated) v = !v;
          if (!v) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        st = poll();
        if (!st.ok()) break;
        if (level + 1 == k) {
          if (!emit(tuple)) break;
          continue;
        }
        ++level;
        next[level] = 0;
        const LevelPlan& inner = plan.levels[level];
        if (!inner.has_driver) {
          cands[level] = filtered[static_cast<size_t>(inner.column)];
          continue;
        }
        const Literal& lit =
            plan.literals[static_cast<size_t>(inner.driver.literal_index)];
        const dsl::BoundAtom& a = atoms[static_cast<size_t>(lit.atom)];
        const hdt::NodeId m = dsl::EvalNodeExtractor(
            tree, inner.driver.probe_is_lhs ? a.lhs_path : a.rhs_path,
            tuple[static_cast<size_t>(inner.driver.probe_col)]);
        // ⊥ on the bound side: the equality cannot hold.
        cands[level] = m == hdt::kInvalidNode
                           ? std::span<const hdt::NodeId>()
                           : index[level].Find(tree, m);
      }
      MITRA_COUNT("exec/rows/scanned", scanned);
      (void)scanned;  // the no-op build compiles the flush away
      return st;
    };

    // The outermost level is split into contiguous candidate ranges
    // (chunks) enumerated on the pool; within a chunk the enumeration
    // order is the loop nest's, so concatenating the chunks in range
    // order gives the same tuple sequence at every pool size. A chunk
    // appends its tuples to one arity-strided buffer and drops tuples an
    // earlier clause emitted (nothing writes `seen` while a clause
    // enumerates). A clause never emits one tuple twice, since each level
    // binds its own column from a duplicate-free candidate list, so a
    // chunk's count is post-dedup, and a chunk that stops at
    // max_output_rows + 1 tuples proves overflow.
    const size_t n0 =
        filtered[static_cast<size_t>(plan.levels[0].column)].size();
    const size_t num_chunks = std::min(n0, max_chunks);
    const bool check_seen = !seen.empty();
    std::vector<std::vector<hdt::NodeId>> chunk_out(num_chunks);
    MITRA_RETURN_IF_ERROR(common::ParallelForStatus(
        opts.pool, num_chunks,
        [&](size_t c) -> Status {
          const size_t first = n0 * c / num_chunks;
          const size_t last = n0 * (c + 1) / num_chunks;
          std::vector<hdt::NodeId>& ids = chunk_out[c];
          // About one tuple per outermost candidate, as a join-driven
          // table emits; more grows the buffer geometrically.
          ids.reserve((last - first) * k);
          uint64_t rows = 0;
          uint64_t uncharged = 0;
          Status charge = Status::OK();
          Status st = enumerate_range(
              first, last, [&](const dsl::NodeTuple& t) {
                if (check_seen && seen.Contains(t)) return true;
                ids.insert(ids.end(), t.begin(), t.end());
                ++rows;
                // Rows are charged 256 at a time, after they are emitted.
                if (opts.governor != nullptr && ++uncharged == 256) {
                  uncharged = 0;
                  charge = opts.governor->ChargeRows(256, "exec/emit");
                  if (!charge.ok()) return false;
                }
                return rows <= opts.max_output_rows;
              });
          if (st.ok()) st = std::move(charge);
          // The remainder, so the charge is the chunk's exact row count.
          if (st.ok() && uncharged > 0) {
            st = opts.governor->ChargeRows(uncharged, "exec/emit");
          }
          MITRA_COUNT("exec/rows/emitted", rows);
          return st;
        },
        token));

    size_t emitted = 0;
    for (const std::vector<hdt::NodeId>& ids : chunk_out) {
      emitted += ids.size() / k;
    }
    if (emitted > opts.max_output_rows) {
      return Status::ResourceExhausted("output exceeds max_output_rows");
    }
    if (out.ids.empty() && num_chunks == 1) {
      out.ids = std::move(chunk_out[0]);
    } else {
      out.ids.reserve(out.ids.size() + emitted * k);
      for (const std::vector<hdt::NodeId>& ids : chunk_out) {
        out.ids.insert(out.ids.end(), ids.begin(), ids.end());
      }
    }
    if (clause + 1 < clauses_.size()) {
      // RowSet holds 32-bit row indices.
      if (out.size() >= kNoSlot) {
        return Status::ResourceExhausted(
            "output exceeds the rows a later clause can drop duplicates of");
      }
      seen.Reset(out);
    }
  }
  return out;
}

Result<hdt::Table> OptimizedExecutor::Execute(
    const hdt::Hdt& tree, const ExecuteOptions& opts) const {
  MITRA_ASSIGN_OR_RETURN(NodeTable nodes, ExecuteNodes(tree, opts));
  hdt::Table out(nodes.arity);
  size_t bytes = 0;
  for (hdt::NodeId n : nodes.ids) bytes += tree.Data(n).size();
  out.Reserve(nodes.size(), bytes);
  for (size_t r = 0; r < nodes.size(); ++r) {
    MITRA_RETURN_IF_ERROR(dsl::AppendProjectedRow(tree, nodes[r], &out));
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
