#ifndef MITRA_CORE_NODE_EXTRACTOR_ENUM_H_
#define MITRA_CORE_NODE_EXTRACTOR_ENUM_H_

#include <vector>

#include "common/governor.h"
#include "common/status.h"
#include "dsl/ast.h"
#include "hdt/hdt.h"

/// \file node_extractor_enum.h
/// Enumeration of the valid node extractors χᵢ for a column (Fig. 10,
/// rules 1-3): ϕ ∈ χᵢ iff evaluating ϕ never yields ⊥ on any node that
/// the column's extractor πᵢ produces on any example tree. These are the
/// building blocks of the predicate universe (§5.2).

namespace mitra::core {

struct NodeExtractorEnumOptions {
  /// Maximum number of parent/child steps. The motivating example's φ1
  /// needs parent∘parent∘parent, i.e. depth 3.
  int max_depth = 3;
  /// Cap on returned extractors (after behavioral deduplication),
  /// shallowest first.
  size_t max_extractors = 512;
  /// Only instantiate child(·, tag, pos) steps with pos below this cap.
  int32_t max_child_pos = 8;
  /// Optional resource governor, checked once per candidate expansion and
  /// charged one state per kept extractor.
  common::Governor* governor = nullptr;
};

/// One enumerated extractor together with its behavior on the source
/// nodes (used downstream to evaluate atoms cheaply).
struct EnumeratedExtractor {
  dsl::NodeExtractor extractor;
  /// targets[e][k] = result of applying the extractor to the k'th node of
  /// πᵢ on example e. Never kInvalidNode (validity, Fig. 10).
  std::vector<std::vector<hdt::NodeId>> targets;
};

/// Enumerates the node extractors that are valid on explicit source node
/// lists (one list per tree), breadth-first by depth. For χᵢ the sources
/// are the nodes the column's πᵢ produces on each example
/// (ExtractorMemoCache::Extractors); the foreign-key learner (§6) passes
/// the per-row tuple components instead. Two extractors with identical
/// behavior on all source nodes are merged, keeping the shallower one
/// (behavioral dedup keeps the predicate universe and the ILP instance
/// small without losing any distinguishing power).
Result<std::vector<EnumeratedExtractor>> EnumerateNodeExtractorsFromSources(
    const std::vector<const hdt::Hdt*>& trees,
    const std::vector<std::vector<hdt::NodeId>>& sources,
    const NodeExtractorEnumOptions& opts = {});

}  // namespace mitra::core

#endif  // MITRA_CORE_NODE_EXTRACTOR_ENUM_H_
