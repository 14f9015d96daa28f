#include "core/dfa.h"

#include <algorithm>
#include <deque>
#include <set>
#include <unordered_set>

#include "common/strings.h"
#include "obs/obs.h"

namespace mitra::core {

bool ColSymbolPool::Key::operator<(const Key& o) const {
  if (op != o.op) return op < o.op;
  if (tag != o.tag) return tag < o.tag;
  return pos < o.pos;
}

int ColSymbolPool::Intern(const dsl::ColStep& step) {
  Key key{step.op, step.tag, step.op == dsl::ColOp::kPChildren ? step.pos : 0};
  auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  int id = static_cast<int>(steps_.size());
  dsl::ColStep canon = step;
  if (canon.op != dsl::ColOp::kPChildren) canon.pos = 0;
  steps_.push_back(std::move(canon));
  ids_.emplace(std::move(key), id);
  return id;
}

namespace {

/// Applies one column step to a sorted node set.
std::vector<hdt::NodeId> ApplyStep(const hdt::Hdt& tree,
                                   const std::vector<hdt::NodeId>& s,
                                   dsl::ColOp op, hdt::TagId tag,
                                   int32_t pos) {
  std::vector<hdt::NodeId> next;
  switch (op) {
    case dsl::ColOp::kChildren:
      for (hdt::NodeId n : s) {
        auto sp = tree.ChildrenWithTag(n, tag);
        next.insert(next.end(), sp.begin(), sp.end());
      }
      break;
    case dsl::ColOp::kPChildren:
      for (hdt::NodeId n : s) {
        hdt::NodeId c = tree.ChildWithTagPos(n, tag, pos);
        if (c != hdt::kInvalidNode) next.push_back(c);
      }
      break;
    case dsl::ColOp::kDescendants:
      for (hdt::NodeId n : s) {
        auto sp = tree.DescendantsWithTag(n, tag);
        next.insert(next.end(), sp.begin(), sp.end());
      }
      break;
  }
  std::sort(next.begin(), next.end());
  next.erase(std::unique(next.begin(), next.end()), next.end());
  return next;
}

/// Checks rule (5): does the node set's data cover all target values?
bool CoversTargets(const hdt::Hdt& tree, const std::vector<hdt::NodeId>& s,
                   const std::set<std::string>& targets) {
  if (targets.empty()) return true;
  std::set<std::string> remaining = targets;
  for (hdt::NodeId n : s) {
    if (!tree.HasData(n)) continue;
    remaining.erase(std::string(tree.Data(n)));
    if (remaining.empty()) return true;
  }
  return remaining.empty();
}

}  // namespace

Result<Dfa> ConstructColumnDfa(const hdt::Hdt& tree,
                               const std::vector<std::string>& target_values,
                               ColSymbolPool* pool, const DfaOptions& opts) {
  MITRA_SPAN(span, "dfa/construct");
  if (tree.empty()) {
    return Status::InvalidArgument("cannot build a DFA over an empty tree");
  }
  std::set<std::string> targets(target_values.begin(), target_values.end());

  // Alphabet: every operator instantiated with the tree's tags/positions
  // (Fig. 9's Σ). Interned into the shared pool.
  struct Sym {
    int id;
    dsl::ColOp op;
    hdt::TagId tag;
    int32_t pos;
  };
  std::vector<Sym> alphabet;
  for (hdt::TagId t : tree.AllTags()) {
    const std::string name(tree.TagName(t));
    alphabet.push_back(
        {pool->Intern({dsl::ColOp::kChildren, name, 0}), dsl::ColOp::kChildren,
         t, 0});
    alphabet.push_back({pool->Intern({dsl::ColOp::kDescendants, name, 0}),
                        dsl::ColOp::kDescendants, t, 0});
  }
  for (auto [t, pos] : tree.AllTagPosPairs()) {
    if (pos >= opts.max_pchildren_pos) continue;
    alphabet.push_back({pool->Intern({dsl::ColOp::kPChildren,
                                      std::string(tree.TagName(t)), pos}),
                        dsl::ColOp::kPChildren, t, pos});
  }

  // BFS over reachable node sets (rules 1-4). Empty sets are pruned: they
  // are a non-accepting sink for non-empty targets, and useless extractors
  // otherwise.
  Dfa dfa;
  std::map<std::vector<hdt::NodeId>, int> state_ids;
  std::vector<std::vector<hdt::NodeId>> state_sets;
  std::deque<int> worklist;

  std::vector<hdt::NodeId> init{tree.root()};
  state_ids.emplace(init, 0);
  state_sets.push_back(init);
  dfa.delta.emplace_back();
  dfa.accepting.push_back(CoversTargets(tree, init, targets));
  worklist.push_back(0);

  while (!worklist.empty()) {
    MITRA_GOV_CHECK(opts.governor, "dfa/construct");
    int sid = worklist.front();
    worklist.pop_front();
    // Copy: state_sets may reallocate while we add states.
    std::vector<hdt::NodeId> cur = state_sets[sid];
    for (const Sym& sym : alphabet) {
      std::vector<hdt::NodeId> next =
          ApplyStep(tree, cur, sym.op, sym.tag, sym.pos);
      if (next.empty()) continue;
      auto [it, inserted] = state_ids.emplace(next, state_sets.size());
      if (inserted) {
        if (state_sets.size() >= opts.max_states) {
          return Status::ResourceExhausted(
              "column DFA exceeded " + std::to_string(opts.max_states) +
              " states");
        }
        if (opts.governor != nullptr) {
          MITRA_RETURN_IF_ERROR(
              opts.governor->ChargeStates(1, "dfa/construct"));
          MITRA_RETURN_IF_ERROR(opts.governor->ChargeBytes(
              next.size() * sizeof(hdt::NodeId) + 64, "alloc/dfa-state"));
        }
        state_sets.push_back(std::move(next));
        dfa.delta.emplace_back();
        dfa.accepting.push_back(
            CoversTargets(tree, state_sets.back(), targets));
        worklist.push_back(it->second);
      }
      dfa.delta[sid].emplace(sym.id, it->second);
    }
  }
  MITRA_COUNT("dfa/construct/calls", 1);
  MITRA_COUNT("dfa/construct/states", dfa.NumStates());
  MITRA_COUNT("dfa/construct/transitions", dfa.NumTransitions());
  return dfa;
}

Result<Dfa> IntersectDfa(const Dfa& a, const Dfa& b, const DfaOptions& opts) {
  MITRA_SPAN(span, "dfa/intersect");
  Dfa out;
  std::map<std::pair<int, int>, int> ids;
  std::deque<std::pair<int, int>> worklist;

  auto intern = [&](int sa, int sb) -> Result<int> {
    auto [it, inserted] = ids.emplace(std::make_pair(sa, sb),
                                      static_cast<int>(out.delta.size()));
    if (inserted) {
      if (out.delta.size() >= opts.max_states) {
        return Status::ResourceExhausted("product DFA exceeded " +
                                         std::to_string(opts.max_states) +
                                         " states");
      }
      if (opts.governor != nullptr) {
        MITRA_RETURN_IF_ERROR(
            opts.governor->ChargeStates(1, "dfa/intersect"));
        MITRA_RETURN_IF_ERROR(
            opts.governor->ChargeBytes(64, "alloc/dfa-product"));
      }
      out.delta.emplace_back();
      out.accepting.push_back(a.accepting[sa] && b.accepting[sb]);
      worklist.emplace_back(sa, sb);
    }
    return it->second;
  };

  MITRA_ASSIGN_OR_RETURN(int init, intern(0, 0));
  (void)init;
  while (!worklist.empty()) {
    MITRA_GOV_CHECK(opts.governor, "dfa/intersect");
    auto [sa, sb] = worklist.front();
    worklist.pop_front();
    int sid = ids.at({sa, sb});
    // Follow symbols defined in both states.
    const auto& da = a.delta[sa];
    const auto& db = b.delta[sb];
    const auto& smaller = da.size() <= db.size() ? da : db;
    const auto& larger = da.size() <= db.size() ? db : da;
    for (const auto& [sym, ta] : smaller) {
      auto it = larger.find(sym);
      if (it == larger.end()) continue;
      int next_a = (&smaller == &da) ? ta : it->second;
      int next_b = (&smaller == &da) ? it->second : ta;
      MITRA_ASSIGN_OR_RETURN(int nid, intern(next_a, next_b));
      out.delta[sid].emplace(sym, nid);
    }
  }
  MITRA_COUNT("dfa/intersect/calls", 1);
  MITRA_COUNT("dfa/intersect/states", out.NumStates());
  MITRA_COUNT("dfa/intersect/transitions", out.NumTransitions());
  return out;
}

std::vector<dsl::ColumnExtractor> EnumerateAcceptedPrograms(
    const Dfa& dfa, const ColSymbolPool& pool, const EnumOptions& opts) {
  std::vector<dsl::ColumnExtractor> out;
  if (dfa.NumStates() == 0) return out;

  struct Item {
    int state;
    std::vector<int> word;
  };
  std::deque<Item> queue;
  queue.push_back({0, {}});
  uint64_t expansions = 0;

  auto symbol_order = [&](int lhs, int rhs) {
    const dsl::ColStep& a = pool.Step(lhs);
    const dsl::ColStep& b = pool.Step(rhs);
    if (a.op != b.op) return a.op < b.op;
    if (a.tag != b.tag) return a.tag < b.tag;
    return a.pos < b.pos;
  };

  while (!queue.empty() && out.size() < opts.max_programs &&
         expansions < opts.max_expansions) {
    // Cannot return a Status from here; an overrun/cancellation trips the
    // governor's token (inside Check), and the caller surfaces it.
    if (opts.governor != nullptr &&
        !opts.governor->Check("dfa/enumerate").ok()) {
      break;
    }
    Item item = std::move(queue.front());
    queue.pop_front();
    if (dfa.accepting[item.state]) {
      dsl::ColumnExtractor pi;
      pi.steps.reserve(item.word.size());
      for (int sym : item.word) pi.steps.push_back(pool.Step(sym));
      out.push_back(std::move(pi));
      if (out.size() >= opts.max_programs) break;
    }
    if (item.word.size() >= opts.max_length) continue;
    // Expand in deterministic cost order.
    std::vector<int> syms;
    syms.reserve(dfa.delta[item.state].size());
    for (const auto& [sym, next] : dfa.delta[item.state]) syms.push_back(sym);
    std::sort(syms.begin(), syms.end(), symbol_order);
    for (int sym : syms) {
      ++expansions;
      Item next{dfa.delta[item.state].at(sym), item.word};
      next.word.push_back(sym);
      queue.push_back(std::move(next));
    }
  }
  MITRA_COUNT("dfa/enumerate/expansions", expansions);
  MITRA_COUNT("dfa/enumerate/programs", out.size());
  return out;
}

}  // namespace mitra::core
