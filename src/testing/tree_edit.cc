#include "testing/tree_edit.h"

#include "common/strings.h"

namespace mitra::testing {

namespace {

void CopyRec(const hdt::Hdt& src, hdt::NodeId src_node, hdt::HdtBuilder* dst,
             hdt::NodeId dst_parent, hdt::NodeId skip,
             const std::string& mutate_suffix,
             const std::set<std::string>* preserve) {
  if (src_node == skip) return;
  const std::string_view tag = src.NodeTagName(src_node);
  hdt::NodeId copy;
  if (src.HasData(src_node)) {
    std::string data(src.Data(src_node));
    if (!mutate_suffix.empty() && !ParseNumber(data).has_value() &&
        (preserve == nullptr || preserve->count(data) == 0)) {
      data += mutate_suffix;
    }
    if (src.IsAttribute(src_node)) {
      copy = dst->AddAttribute(dst_parent, tag, data);
    } else if (src.IsTextRun(src_node)) {
      copy = dst->AddTextRun(dst_parent, data);
    } else {
      copy = dst->AddChild(dst_parent, tag, data);
    }
  } else {
    copy = dst->AddChild(dst_parent, tag);
  }
  for (hdt::NodeId c : src.Children(src_node)) {
    CopyRec(src, c, dst, copy, skip, mutate_suffix, preserve);
  }
}

hdt::NodeId CopyRootInto(const hdt::Hdt& src, hdt::NodeId skip,
                         hdt::HdtBuilder* dst) {
  hdt::NodeId root = dst->AddRoot(src.NodeTagName(src.root()));
  if (src.HasData(src.root())) {
    dst->SetLeafData(root, src.Data(src.root()));
    return root;
  }
  for (hdt::NodeId c : src.Children(src.root())) {
    CopyRec(src, c, dst, root, skip, "", nullptr);
  }
  return root;
}

hdt::Hdt CopyMaybeSkipping(const hdt::Hdt& src, hdt::NodeId skip) {
  if (src.empty()) return hdt::Hdt();
  hdt::HdtBuilder out;
  CopyRootInto(src, skip, &out);
  return out.Finish();
}

}  // namespace

void AppendSubtreeCopy(const hdt::Hdt& src, hdt::NodeId src_node,
                       hdt::HdtBuilder* dst, hdt::NodeId dst_parent,
                       const std::string& mutate_suffix,
                       const std::set<std::string>* preserve) {
  CopyRec(src, src_node, dst, dst_parent, hdt::kInvalidNode, mutate_suffix,
          preserve);
}

hdt::NodeId CopyInto(const hdt::Hdt& src, hdt::HdtBuilder* dst) {
  return CopyRootInto(src, hdt::kInvalidNode, dst);
}

hdt::Hdt CopyTree(const hdt::Hdt& src) {
  return CopyMaybeSkipping(src, hdt::kInvalidNode);
}

hdt::Hdt CopyWithoutSubtree(const hdt::Hdt& src, hdt::NodeId victim) {
  return CopyMaybeSkipping(src, victim);
}

}  // namespace mitra::testing
