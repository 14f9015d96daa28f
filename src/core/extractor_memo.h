#ifndef MITRA_CORE_EXTRACTOR_MEMO_H_
#define MITRA_CORE_EXTRACTOR_MEMO_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/single_flight.h"
#include "common/status.h"
#include "core/example.h"
#include "core/node_extractor_enum.h"
#include "dsl/ast.h"

/// \file extractor_memo.h
/// Cross-candidate memoization for the synthesizer's Phase 2. Consecutive
/// table extractors ψ ∈ Π1 × … × Πk drawn from the cheapest-first frontier
/// share almost all of their column extractors, yet the predicate learner
/// re-derives per-column work from scratch for every combo: EvalColumn
/// node lists, the enumerated node-extractor set χᵢ, and the per-target
/// facts (leaf-ness, data, parsed number) that atom evaluation reads.
/// ExtractorMemoCache keys all three on the column extractor's string
/// form, so a ψ that reuses a column extractor from any previous combo
/// pays nothing.
///
/// Thread safety: all methods are safe to call concurrently (the
/// synthesizer's wave evaluation does). Each of the three maps is a
/// common::SingleFlight: a key being computed by one thread blocks other
/// requesters for the same key, so heavy enumeration work is never
/// duplicated. Cached values are pure functions of (examples, extractor,
/// options), so memoization cannot change any result — only its cost.
///
/// Lifetime: one cache serves one (examples, options) pair; the
/// synthesizer scopes one cache per LearnTransformation call. Examples
/// must outlive the cache (facts hold string_views into the trees).

namespace mitra::core {

/// Pre-extracted facts about one target node (the result of applying a
/// node extractor to one column value): everything atom evaluation needs.
struct TargetFacts {
  hdt::NodeId node = hdt::kInvalidNode;
  bool is_leaf = false;
  bool has_data = false;
  std::string_view data;
  std::optional<double> number;
  /// Dictionary id of `data`, or hdt::kInvalidData when the node has no
  /// data. Enables 32-bit equality in atom evaluation.
  hdt::DataId data_id = hdt::kInvalidData;
};

/// Extracts the facts atom evaluation needs from one tree node.
TargetFacts FactsFor(const hdt::Hdt& tree, hdt::NodeId node);

/// Per-example EvalColumn results for one column extractor.
struct ColumnEvalEntry {
  /// values[e] = EvalColumn(tree_e, pi), in document order.
  std::vector<std::vector<hdt::NodeId>> values;
};

/// One enumerated node extractor with pre-extracted facts per target.
struct ExtractorWithFacts {
  dsl::NodeExtractor extractor;
  /// facts[e][v] = facts of applying the extractor to the v'th column
  /// value of example e (aligned with ColumnEvalEntry::values[e]).
  std::vector<std::vector<TargetFacts>> facts;
};

/// The enumerated χᵢ for one column extractor, facts included.
struct EnumeratedEntry {
  Status status;  ///< enumeration failure (propagated verbatim)
  std::vector<ExtractorWithFacts> extractors;
};

class ExtractorMemoCache {
 public:
  /// Per-example EvalColumn results for `pi`, computed once per distinct
  /// extractor string.
  std::shared_ptr<const ColumnEvalEntry> Columns(
      const Examples& examples, const dsl::ColumnExtractor& pi);

  /// Enumerated node extractors (χᵢ) for `pi` with pre-extracted target
  /// facts. `opts` must be identical across all calls on one cache.
  std::shared_ptr<const EnumeratedEntry> Extractors(
      const Examples& examples, const dsl::ColumnExtractor& pi,
      const NodeExtractorEnumOptions& opts);

  /// The deduplicated constant pool (rule 4) over the examples' data
  /// values; identical for every candidate ψ, so computed once.
  std::shared_ptr<const std::vector<std::string>> Constants(
      const Examples& examples, size_t max_constants);

  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  /// `map->Get`, counted under memo/extractor/{misses,hits,collisions}.
  template <typename T, typename Fn>
  std::shared_ptr<const T> Get(common::SingleFlight<T>* map,
                               const std::string& key, Fn compute);

  common::SingleFlight<ColumnEvalEntry> columns_;
  common::SingleFlight<EnumeratedEntry> extractors_;
  common::SingleFlight<std::vector<std::string>> constants_;
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
};

}  // namespace mitra::core

#endif  // MITRA_CORE_EXTRACTOR_MEMO_H_
