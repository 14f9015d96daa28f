#include "core/extractor_memo.h"

#include <unordered_set>
#include <utility>

#include "dsl/eval.h"
#include "obs/obs.h"

namespace mitra::core {

TargetFacts FactsFor(const hdt::Hdt& tree, hdt::NodeId node) {
  TargetFacts tf;
  tf.node = node;
  tf.is_leaf = tree.IsLeaf(node);
  tf.has_data = tree.HasData(node);
  tf.data = tree.Data(node);
  tf.data_id = tree.GetDataId(node);
  // The parse result is precomputed per dictionary entry.
  if (tf.has_data) tf.number = tree.DictNumber(tf.data_id);
  return tf;
}

template <typename T, typename Fn>
std::shared_ptr<const T> ExtractorMemoCache::Get(common::SingleFlight<T>* map,
                                                 const std::string& key,
                                                 Fn compute) {
  common::Flight flight;
  std::shared_ptr<const T> value = map->Get(key, compute, &flight);
  if (flight == common::Flight::kOwned) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    MITRA_COUNT("memo/extractor/misses", 1);
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    MITRA_COUNT("memo/extractor/hits", 1);
    // Single-flight collision: the requester waited for the owner.
    if (flight == common::Flight::kCollided) {
      MITRA_COUNT("memo/extractor/collisions", 1);
    }
  }
  return value;
}

std::shared_ptr<const ColumnEvalEntry> ExtractorMemoCache::Columns(
    const Examples& examples, const dsl::ColumnExtractor& pi) {
  return Get(&columns_, dsl::ToString(pi), [&] {
    ColumnEvalEntry entry;
    entry.values.reserve(examples.size());
    for (const Example& e : examples) {
      entry.values.push_back(dsl::EvalColumn(*e.tree, pi));
    }
    return entry;
  });
}

std::shared_ptr<const EnumeratedEntry> ExtractorMemoCache::Extractors(
    const Examples& examples, const dsl::ColumnExtractor& pi,
    const NodeExtractorEnumOptions& opts) {
  return Get(&extractors_, dsl::ToString(pi), [&] {
    EnumeratedEntry entry;
    auto columns = Columns(examples, pi);
    std::vector<const hdt::Hdt*> trees;
    trees.reserve(examples.size());
    for (const Example& e : examples) trees.push_back(e.tree);
    auto enumerated =
        EnumerateNodeExtractorsFromSources(trees, columns->values, opts);
    if (!enumerated.ok()) {
      entry.status = enumerated.status();
      return entry;
    }
    entry.extractors.reserve(enumerated->size());
    for (EnumeratedExtractor& ee : *enumerated) {
      ExtractorWithFacts ef;
      ef.extractor = std::move(ee.extractor);
      ef.facts.resize(examples.size());
      for (size_t e = 0; e < examples.size(); ++e) {
        const hdt::Hdt& tree = *examples[e].tree;
        ef.facts[e].reserve(ee.targets[e].size());
        for (hdt::NodeId m : ee.targets[e]) {
          ef.facts[e].push_back(FactsFor(tree, m));
        }
      }
      entry.extractors.push_back(std::move(ef));
    }
    return entry;
  });
}

std::shared_ptr<const std::vector<std::string>> ExtractorMemoCache::Constants(
    const Examples& examples, size_t max_constants) {
  return Get(&constants_, "$constants", [&] {
    // First-seen order over all example trees.
    std::vector<std::string> constants;
    std::unordered_set<std::string> seen;
    for (const Example& e : examples) {
      for (std::string& v : e.tree->AllDataValues()) {
        if (constants.size() >= max_constants) break;
        if (seen.insert(v).second) constants.push_back(std::move(v));
      }
    }
    return constants;
  });
}

}  // namespace mitra::core
