#include "core/node_extractor_enum.h"

#include <map>
#include <set>
#include <string>

namespace mitra::core {

Result<std::vector<EnumeratedExtractor>> EnumerateNodeExtractorsFromSources(
    const std::vector<const hdt::Hdt*>& trees,
    const std::vector<std::vector<hdt::NodeId>>& sources,
    const NodeExtractorEnumOptions& opts) {
  if (trees.empty() || trees.size() != sources.size()) {
    return Status::InvalidArgument(
        "trees and sources must be non-empty and aligned");
  }

  // Candidate steps: parent, plus child(tag, pos) over the union of the
  // trees' (tag, pos) vocabulary.
  std::vector<dsl::NodeStep> steps;
  steps.push_back({dsl::NodeOp::kParent, "", 0});
  std::set<std::pair<std::string, int32_t>> seen_pairs;
  for (const hdt::Hdt* tree : trees) {
    for (auto [tag, pos] : tree->AllTagPosPairs()) {
      if (pos >= opts.max_child_pos) continue;
      seen_pairs.emplace(tree->TagName(tag), pos);
    }
  }
  for (const auto& [tag, pos] : seen_pairs) {
    steps.push_back({dsl::NodeOp::kChild, tag, pos});
  }

  // BFS by depth with behavioral dedup.
  std::vector<EnumeratedExtractor> out;
  std::map<std::vector<std::vector<hdt::NodeId>>, size_t> behaviors;

  EnumeratedExtractor identity;
  identity.targets = sources;
  behaviors.emplace(identity.targets, 0);
  out.push_back(std::move(identity));

  size_t level_begin = 0;
  for (int depth = 1; depth <= opts.max_depth; ++depth) {
    size_t level_end = out.size();
    for (size_t i = level_begin; i < level_end; ++i) {
      MITRA_GOV_CHECK(opts.governor, "node-enum/expand");
      for (const dsl::NodeStep& step : steps) {
        // Apply one step to the parent extractor's behavior; reject on ⊥
        // (Fig. 10 validity).
        std::vector<std::vector<hdt::NodeId>> targets;
        targets.reserve(trees.size());
        bool valid = true;
        for (size_t e = 0; e < trees.size() && valid; ++e) {
          const hdt::Hdt& tree = *trees[e];
          // One symbol-table probe per (tree, step), not per node.
          const auto tag = step.op == dsl::NodeOp::kChild
                               ? tree.LookupTag(step.tag)
                               : std::nullopt;
          std::vector<hdt::NodeId> row;
          row.reserve(out[i].targets[e].size());
          for (hdt::NodeId n : out[i].targets[e]) {
            hdt::NodeId m;
            if (step.op == dsl::NodeOp::kParent) {
              m = tree.Parent(n);
            } else {
              m = tag ? tree.ChildWithTagPos(n, *tag, step.pos)
                      : hdt::kInvalidNode;
            }
            if (m == hdt::kInvalidNode) {
              valid = false;
              break;
            }
            row.push_back(m);
          }
          if (valid) targets.push_back(std::move(row));
        }
        if (!valid) continue;
        if (behaviors.contains(targets)) continue;  // behavioral duplicate
        if (opts.governor != nullptr) {
          MITRA_RETURN_IF_ERROR(
              opts.governor->ChargeStates(1, "node-enum/keep"));
        }
        EnumeratedExtractor ext;
        ext.extractor = out[i].extractor;
        ext.extractor.steps.push_back(step);
        ext.targets = targets;
        behaviors.emplace(std::move(targets), out.size());
        out.push_back(std::move(ext));
        if (out.size() >= opts.max_extractors) return out;
      }
    }
    level_begin = level_end;
    if (level_begin == out.size()) break;  // fixpoint: nothing new
  }
  return out;
}

}  // namespace mitra::core
