#include "hdt/hdt.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"
#include "obs/obs.h"

namespace mitra::hdt {

// --- Dictionary -------------------------------------------------------------

uint32_t Dictionary::Hash(std::string_view s) {
  const size_t h = std::hash<std::string_view>{}(s);
  return static_cast<uint32_t>(h ^ (h >> 32));
}

void Dictionary::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<size_t>(16, old.size() * 2), Slot{0, -1});
  const size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id < 0) continue;
    size_t i = s.hash & mask;
    while (slots_[i].id >= 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

int32_t Dictionary::Intern(std::string_view value) {
  // Linear probing at a load factor of at most 3/4.
  if (4 * (size() + 1) > 3 * slots_.size()) Grow();
  const uint32_t h = Hash(value);
  const size_t mask = slots_.size() - 1;
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.id < 0) {
      s = Slot{h, static_cast<int32_t>(size())};
      chars_.append(value);
      offsets_.push_back(chars_.size());
      return s.id;
    }
    if (s.hash == h && Value(s.id) == value) return s.id;
  }
}

std::optional<int32_t> Dictionary::Find(std::string_view value) const {
  if (slots_.empty()) return std::nullopt;
  const uint32_t h = Hash(value);
  const size_t mask = slots_.size() - 1;
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.id < 0) return std::nullopt;
    if (s.hash == h && Value(s.id) == value) return s.id;
  }
}

// --- HdtBuilder -------------------------------------------------------------

NodeId HdtBuilder::Append(NodeId parent, std::string_view tag, DataId data,
                          uint8_t flags) {
  const auto id = static_cast<NodeId>(s_.tag.size());
  if (preorder_ && parent != kInvalidNode) {
    // The new node continues the preorder iff its parent is on the
    // rightmost path; everything below the parent on that path is closed.
    while (!open_.empty() && open_.back() != parent) open_.pop_back();
    preorder_ = !open_.empty();
  }
  if (preorder_) open_.push_back(id);
  s_.tag.push_back(s_.tags.Intern(tag));
  s_.parent.push_back(parent);
  s_.data.push_back(data);
  s_.flags.push_back(flags);
  return id;
}

NodeId HdtBuilder::AddRoot(std::string_view tag) {
  assert(s_.tag.empty() && "AddRoot must be called exactly once, first");
  return Append(kInvalidNode, tag, kInvalidData, 0);
}

NodeId HdtBuilder::AddChild(NodeId parent, std::string_view tag) {
  return Append(parent, tag, kInvalidData, 0);
}

NodeId HdtBuilder::AddChild(NodeId parent, std::string_view tag,
                            std::string_view data) {
  return Append(parent, tag, s_.dict.Intern(data), 0);
}

NodeId HdtBuilder::AddAttribute(NodeId parent, std::string_view name,
                                std::string_view value) {
  return Append(parent, name, s_.dict.Intern(value), Hdt::kAttributeFlag);
}

NodeId HdtBuilder::AddTextRun(NodeId parent, std::string_view data) {
  return Append(parent, "text", s_.dict.Intern(data), Hdt::kTextRunFlag);
}

void HdtBuilder::SetLeafData(NodeId id, std::string_view data) {
  s_.data[id] = s_.dict.Intern(data);
}

void HdtBuilder::Renumber() {
  const size_t n = s_.tag.size();
  // Children in append order: a counting sort of the nodes by parent.
  std::vector<int32_t> begin(n + 1, 0);
  for (size_t i = 1; i < n; ++i) ++begin[s_.parent[i] + 1];
  for (size_t i = 1; i <= n; ++i) begin[i] += begin[i - 1];
  std::vector<NodeId> kids(n);  // n - 1 used: the root has no parent
  {
    std::vector<int32_t> cursor(begin.begin(), begin.end() - 1);
    for (size_t i = 1; i < n; ++i) {
      kids[cursor[s_.parent[i]]++] = static_cast<NodeId>(i);
    }
  }
  // Preorder ranks by an explicit-stack DFS.
  std::vector<NodeId> rank(n);
  std::vector<NodeId> stack{0};
  NodeId next = 0;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    rank[v] = next++;
    for (int32_t k = begin[v + 1]; k > begin[v]; --k) {
      stack.push_back(kids[k - 1]);
    }
  }
  auto permute = [&](auto& column) {
    auto old = std::move(column);
    column.resize(n);
    for (size_t i = 0; i < n; ++i) column[rank[i]] = old[i];
  };
  for (NodeId& p : s_.parent) p = p == kInvalidNode ? p : rank[p];
  permute(s_.tag);
  permute(s_.parent);
  permute(s_.data);
  permute(s_.flags);
}

void HdtBuilder::ReorderDictionary() {
  std::vector<DataId> remap(s_.dict.size(), kInvalidData);
  Dictionary fresh;
  for (DataId& d : s_.data) {
    if (d == kInvalidData) continue;
    if (remap[d] == kInvalidData) remap[d] = fresh.Intern(s_.dict.Value(d));
    d = remap[d];
  }
  s_.dict = std::move(fresh);
}

Hdt HdtBuilder::Finish() {
  MITRA_SPAN(span, "hdt/build");
  const size_t n = s_.tag.size();
  if (n == 0) return Hdt();
  if (!preorder_) Renumber();
  // The dictionary must list exactly the values in use, in first-seen
  // node order. Parsers intern in that order already; out-of-order
  // appends and overwritten leaf data need a rebuild.
  {
    DataId next = 0;
    bool ordered = true;
    for (DataId d : s_.data) {
      if (d == next) {
        ++next;
      } else if (d > next) {
        ordered = false;
        break;
      }
    }
    if (!ordered || static_cast<size_t>(next) != s_.dict.size()) {
      ReorderDictionary();
    }
  }

  auto s = std::make_shared<Hdt::Storage>(std::move(s_));
  *this = HdtBuilder();
  const size_t num_tags = s->tags.size();
  const std::vector<TagId>& tag = s->tag;
  const std::vector<NodeId>& parent = s->parent;

  // Subtree ends: in preorder a subtree ends where its last child's does.
  s->end.resize(n);
  for (size_t i = 0; i < n; ++i) s->end[i] = static_cast<NodeId>(i + 1);
  for (size_t i = n - 1; i > 0; --i) {
    s->end[parent[i]] = std::max(s->end[parent[i]], s->end[i]);
  }

  // Per-tag postings: a counting sort by tag over ascending ids, so each
  // list is in preorder.
  std::vector<int32_t>& posting_begin = s->posting_begin;
  posting_begin.assign(num_tags + 1, 0);
  for (size_t i = 0; i < n; ++i) ++posting_begin[tag[i] + 1];
  for (size_t t = 1; t <= num_tags; ++t) {
    posting_begin[t] += posting_begin[t - 1];
  }
  s->postings.resize(n);
  {
    std::vector<int32_t> cursor(posting_begin.begin(), posting_begin.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      s->postings[cursor[tag[i]]++] = static_cast<NodeId>(i);
    }
  }

  // Children by (tag, document order): a stable counting sort by parent
  // over the postings, which are already ordered by (tag, id).
  std::vector<int32_t>& child_begin = s->child_begin;
  child_begin.assign(n + 1, 0);
  for (size_t i = 1; i < n; ++i) ++child_begin[parent[i] + 1];
  for (size_t i = 1; i <= n; ++i) child_begin[i] += child_begin[i - 1];
  s->child_by_tag.resize(n - 1);
  {
    std::vector<int32_t> cursor(child_begin.begin(), child_begin.end() - 1);
    for (NodeId c : s->postings) {
      if (c != 0) s->child_by_tag[cursor[parent[c]]++] = c;
    }
  }

  // pos = rank within the run of same-parent, same-tag children; (t, k)
  // first occurs after (t, k - 1) does — at the earlier same-tag sibling —
  // so a (tag, pos) pair is new exactly when its pos equals the number of
  // pairs seen so far for its tag.
  s->pos.assign(n, 0);
  for (size_t k = 1; k + 1 < n; ++k) {
    const NodeId c = s->child_by_tag[k];
    const NodeId prev = s->child_by_tag[k - 1];
    if (parent[prev] == parent[c] && tag[prev] == tag[c]) {
      s->pos[c] = s->pos[prev] + 1;
    }
  }
  {
    std::vector<int32_t> seen(num_tags, 0);
    for (size_t i = 1; i < n; ++i) {
      if (s->pos[i] == seen[tag[i]]) {
        s->tag_pos_pairs.emplace_back(tag[i], s->pos[i]);
        ++seen[tag[i]];
      }
    }
  }

  s->dict_number.resize(s->dict.size());
  for (size_t d = 0; d < s->dict_number.size(); ++d) {
    s->dict_number[d] = ParseNumber(s->dict.Value(static_cast<DataId>(d)));
  }
#ifndef NDEBUG
  for (size_t i = 0; i < n; ++i) {
    assert((s->data[i] == kInvalidData ||
            s->end[i] == static_cast<NodeId>(i + 1)) &&
           "only leaves may carry data");
  }
#endif

  MITRA_COUNT("hdt/build/trees", 1);
  MITRA_COUNT("hdt/build/nodes", n);
  MITRA_COUNT("hdt/build/dict_entries", s->dict.size());
  return Hdt(std::move(s));
}

// --- Hdt --------------------------------------------------------------------

std::span<const NodeId> Hdt::ChildrenWithTag(NodeId id, TagId tag) const {
  const TagId* tags = s_->tag.data();
  const NodeId* first = s_->child_by_tag.data() + s_->child_begin[id];
  const NodeId* last = s_->child_by_tag.data() + s_->child_begin[id + 1];
  const NodeId* b = std::lower_bound(
      first, last, tag, [tags](NodeId c, TagId t) { return tags[c] < t; });
  const NodeId* e = std::upper_bound(
      b, last, tag, [tags](TagId t, NodeId c) { return t < tags[c]; });
  return {b, static_cast<size_t>(e - b)};
}

NodeId Hdt::ChildWithTagPos(NodeId id, TagId tag, int32_t pos) const {
  // The run of `tag` children has pos 0, 1, ... in order.
  const std::span<const NodeId> run = ChildrenWithTag(id, tag);
  if (pos < 0 || static_cast<size_t>(pos) >= run.size()) return kInvalidNode;
  return run[static_cast<size_t>(pos)];
}

std::span<const NodeId> Hdt::DescendantsWithTag(NodeId id, TagId tag) const {
  if (tag < 0 || static_cast<size_t>(tag) >= NumTags()) return {};
  // Proper descendants of `id` are the ids in (id, end[id]); within the
  // tag's posting list (sorted by id) that is one contiguous subrange.
  const NodeId* first = s_->postings.data() + s_->posting_begin[tag];
  const NodeId* last = s_->postings.data() + s_->posting_begin[tag + 1];
  const NodeId* b = std::lower_bound(first, last, id + 1);
  const NodeId* e = std::lower_bound(b, last, s_->end[id]);
  return {b, static_cast<size_t>(e - b)};
}

int Hdt::Depth(NodeId id) const {
  int d = 0;
  while (Parent(id) != kInvalidNode) {
    id = Parent(id);
    ++d;
  }
  return d;
}

std::vector<TagId> Hdt::AllTags() const {
  std::vector<TagId> out(NumTags());
  for (size_t t = 0; t < out.size(); ++t) out[t] = static_cast<TagId>(t);
  return out;
}

const std::vector<std::pair<TagId, int32_t>>& Hdt::AllTagPosPairs() const {
  static const std::vector<std::pair<TagId, int32_t>> kNone;
  return s_ ? s_->tag_pos_pairs : kNone;
}

std::vector<std::string> Hdt::AllDataValues() const {
  std::vector<std::string> out;
  out.reserve(DictSize());
  for (size_t d = 0; d < DictSize(); ++d) {
    out.emplace_back(DictValue(static_cast<DataId>(d)));
  }
  return out;
}

std::string Hdt::ToDebugString() const {
  std::string out;
  // Ids are preorder ranks: the depth of a node is the number of subtrees
  // still open when it is reached.
  std::vector<NodeId> open;
  for (NodeId id = 0; id < static_cast<NodeId>(size()); ++id) {
    while (!open.empty() && open.back() <= id) open.pop_back();
    out.append(open.size() * 2, ' ');
    out.append(NodeTagName(id));
    out.append("[" + std::to_string(Pos(id)) + "]");
    if (HasData(id)) {
      out.append(" = \"");
      out.append(Data(id));
      out.append("\"");
    }
    out.append("\n");
    open.push_back(SubtreeEnd(id));
  }
  return out;
}

}  // namespace mitra::hdt
