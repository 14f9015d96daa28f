#ifndef MITRA_TESTING_TREE_EDIT_H_
#define MITRA_TESTING_TREE_EDIT_H_

#include <set>
#include <string>

#include "hdt/hdt.h"

/// \file tree_edit.h
/// Structural HDT edits used by the generators and the shrinker. All
/// helpers rebuild trees through hdt::HdtBuilder, so positions are
/// renumbered and every result is a valid HDT; provenance flags
/// (attribute / text-run) are preserved.

namespace mitra::testing {

/// Appends a copy of the subtree rooted at `src_node` under `dst_parent`.
/// `dst_parent` need not be on the builder's rightmost path; Finish() then
/// renumbers to preorder.
/// When `mutate_suffix` is non-empty, non-numeric data values not listed
/// in `preserve` get the suffix appended (keeps copies distinguishable,
/// mirroring workload::ReplicateDocument).
void AppendSubtreeCopy(const hdt::Hdt& src, hdt::NodeId src_node,
                       hdt::HdtBuilder* dst, hdt::NodeId dst_parent,
                       const std::string& mutate_suffix = "",
                       const std::set<std::string>* preserve = nullptr);

/// Fills the empty builder `dst` with a copy of the non-empty `src`, in
/// preorder (so builder ids equal `src` ids), and returns the root's id.
hdt::NodeId CopyInto(const hdt::Hdt& src, hdt::HdtBuilder* dst);

/// Deep copy of a whole tree.
hdt::Hdt CopyTree(const hdt::Hdt& src);

/// Copy of `src` with the subtree rooted at `victim` removed. `victim`
/// must not be the root.
hdt::Hdt CopyWithoutSubtree(const hdt::Hdt& src, hdt::NodeId victim);

}  // namespace mitra::testing

#endif  // MITRA_TESTING_TREE_EDIT_H_
