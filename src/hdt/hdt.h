#ifndef MITRA_HDT_HDT_H_
#define MITRA_HDT_HDT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file hdt.h
/// Hierarchical Data Tree (HDT) — the paper's uniform representation of
/// tree-structured documents (Definition 1, §3).
///
/// An HDT is a rooted tree whose nodes are triples (tag, pos, data):
///  - `tag`  — label of the node (element name / attribute name / JSON key),
///  - `pos`  — the node is the pos'th child with this tag under its parent,
///  - `data` — payload; only leaves carry data, internal nodes are nil.
///
/// A tree is emitted by an HdtBuilder (the parsers drive one while they
/// read) and is immutable and fully indexed from then on. Node ids are
/// preorder ranks, so a subtree is an id interval, and every navigation
/// query is a slice of a flat array (see DESIGN.md "Indexed HDT layout").

namespace mitra::hdt {

/// Index of a node: its preorder rank (root = 0).
using NodeId = int32_t;
/// Interned tag identifier (valid within one Hdt).
using TagId = int32_t;
/// Interned leaf-data identifier (valid within one Hdt).
using DataId = int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr DataId kInvalidData = -1;

/// Heap bytes one node of a parsed document costs, dictionary strings
/// included: perfbench's hdt.bytes_per_node reads 53 on the Table 2
/// documents. The parsers charge this to a governor once per node.
inline constexpr size_t kBytesPerNode = 53;

/// Interns strings to dense ids in first-seen order. Each distinct string
/// is stored once, in one character arena, and found again through an
/// open-addressing table of ids (no per-string heap node). Holds both the
/// tags and the leaf values of a tree.
class Dictionary {
 public:
  /// Returns the id of `value`, adding it if it is new.
  int32_t Intern(std::string_view value);
  /// The id of `value`, or nullopt when it was never interned.
  std::optional<int32_t> Find(std::string_view value) const;
  std::string_view Value(int32_t id) const {
    return std::string_view(chars_).substr(offsets_[id],
                                           offsets_[id + 1] - offsets_[id]);
  }
  size_t size() const { return offsets_.size() - 1; }

 private:
  struct Slot {
    uint32_t hash;
    int32_t id;  ///< -1 when the slot is free
  };
  static uint32_t Hash(std::string_view s);
  void Grow();

  std::string chars_;
  std::vector<size_t> offsets_{0};
  std::vector<Slot> slots_;  ///< size is zero or a power of two
};

/// Children of one node in document order: the first child is n + 1 and
/// each next sibling starts where the previous sibling's subtree ends.
class ChildRange {
 public:
  class Iterator {
   public:
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    Iterator() = default;
    Iterator(const NodeId* end, NodeId cur) : end_(end), cur_(cur) {}
    NodeId operator*() const { return cur_; }
    Iterator& operator++() {
      cur_ = end_[cur_];
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iterator& o) const { return cur_ == o.cur_; }

   private:
    const NodeId* end_ = nullptr;
    NodeId cur_ = 0;
  };

  ChildRange(const NodeId* end, NodeId first, NodeId stop)
      : end_(end), first_(first), stop_(stop) {}
  Iterator begin() const { return {end_, first_}; }
  Iterator end() const { return {end_, stop_}; }
  bool empty() const { return first_ == stop_; }

 private:
  const NodeId* end_;
  NodeId first_;
  NodeId stop_;
};

/// An immutable, indexed hierarchical data tree.
///
/// Query with the navigation helpers that mirror the DSL operators of
/// Figure 6 (children / pchildren / descendants on the column side, parent
/// / child on the node-extractor side). Copies share the arrays.
class Hdt {
 public:
  Hdt() = default;

  /// Does nothing: a tree is indexed when it is built. Kept only because
  /// the end-to-end benchmark harness still calls it.
  void FreezeIndex(bool /*compact*/ = true) {}

  // --- basic accessors ----------------------------------------------------

  bool empty() const { return size() == 0; }
  NodeId root() const { return empty() ? kInvalidNode : 0; }
  size_t size() const { return s_ ? s_->tag.size() : 0; }
  /// Number of "elements" as counted in the paper's Table 1 (#Elements):
  /// nodes in the tree.
  size_t NumElements() const { return size(); }

  TagId Tag(NodeId id) const { return s_->tag[id]; }
  int32_t Pos(NodeId id) const { return s_->pos[id]; }
  /// Parent, or kInvalidNode for the root.
  NodeId Parent(NodeId id) const { return s_->parent[id]; }
  /// One past the last node of the subtree rooted at `id`.
  NodeId SubtreeEnd(NodeId id) const { return s_->end[id]; }

  std::string_view TagName(TagId id) const { return s_->tags.Value(id); }
  std::string_view NodeTagName(NodeId id) const { return TagName(Tag(id)); }
  std::optional<TagId> LookupTag(std::string_view name) const {
    if (!s_) return std::nullopt;
    return s_->tags.Find(name);
  }
  size_t NumTags() const { return s_ ? s_->tags.size() : 0; }

  /// True when the node encodes a source-document attribute. Provenance
  /// only: the DSL and the synthesizer never read it; the XML writer and
  /// the XSLT backend use it to tell `@name` from element children.
  bool IsAttribute(NodeId id) const {
    return (s_->flags[id] & kAttributeFlag) != 0;
  }
  /// True when the node encodes a character-data run of a mixed-content
  /// XML/HTML element (a leaf tagged `text`). Provenance only, like
  /// IsAttribute.
  bool IsTextRun(NodeId id) const {
    return (s_->flags[id] & kTextRunFlag) != 0;
  }

  /// Children of `id` in document order.
  ChildRange Children(NodeId id) const {
    return ChildRange(s_->end.data(), id + 1, s_->end[id]);
  }
  size_t NumChildren(NodeId id) const {
    return static_cast<size_t>(s_->child_begin[id + 1] -
                               s_->child_begin[id]);
  }
  /// True if the node has no children. Note a leaf may still have no data
  /// (e.g. an empty XML element).
  bool IsLeaf(NodeId id) const { return s_->end[id] == id + 1; }

  /// Data of a node, or empty string for internal / data-less nodes.
  std::string_view Data(NodeId id) const {
    const DataId d = s_->data[id];
    return d == kInvalidData ? std::string_view() : s_->dict.Value(d);
  }
  bool HasData(NodeId id) const { return s_->data[id] != kInvalidData; }

  // --- leaf-data dictionary -----------------------------------------------

  /// Dictionary id of the node's data, or kInvalidData when it has none.
  /// Dictionary order is first-seen node order, so it equals
  /// AllDataValues() order.
  DataId GetDataId(NodeId id) const { return s_->data[id]; }
  /// The dictionary id of `value`, or nullopt when no leaf holds it.
  std::optional<DataId> LookupDataId(std::string_view value) const {
    if (!s_) return std::nullopt;
    return s_->dict.Find(value);
  }
  size_t DictSize() const { return s_ ? s_->dict.size() : 0; }
  std::string_view DictValue(DataId id) const { return s_->dict.Value(id); }
  /// ParseNumber of a dictionary value, computed once per value.
  const std::optional<double>& DictNumber(DataId id) const {
    return s_->dict_number[id];
  }

  // --- navigation (mirrors DSL operator semantics, Fig. 7) ----------------

  /// All children of `id` with the given tag, in document order.
  std::span<const NodeId> ChildrenWithTag(NodeId id, TagId tag) const;
  /// The child of `id` with the given tag and position, or kInvalidNode.
  NodeId ChildWithTagPos(NodeId id, TagId tag, int32_t pos) const;
  /// All proper descendants of `id` with the given tag, in preorder.
  std::span<const NodeId> DescendantsWithTag(NodeId id, TagId tag) const;

  /// Depth of the node (root = 0).
  int Depth(NodeId id) const;

  /// The set of distinct (tag) and (tag,pos) pairs present in the tree;
  /// used as the DFA alphabet (Fig. 9) and for node-extractor enumeration.
  /// Pairs come in first-seen node order.
  std::vector<TagId> AllTags() const;
  const std::vector<std::pair<TagId, int32_t>>& AllTagPosPairs() const;

  /// All data values stored at leaves (the constant pool for predicate
  /// universe rule (4), Fig. 10). Deduplicated, in first-seen order.
  std::vector<std::string> AllDataValues() const;

  /// Renders the tree as an indented debug string (one node per line).
  std::string ToDebugString() const;

 private:
  static constexpr uint8_t kAttributeFlag = 1;
  static constexpr uint8_t kTextRunFlag = 2;

  /// The arrays of one tree. The builder appends tag, parent, data and
  /// flags; Finish() derives the rest. Per-node arrays are indexed by
  /// NodeId.
  struct Storage {
    Dictionary tags;
    Dictionary dict;

    std::vector<TagId> tag;
    std::vector<NodeId> parent;
    /// Dictionary id of the node's data, or kInvalidData.
    std::vector<DataId> data;
    /// kAttributeFlag / kTextRunFlag bits.
    std::vector<uint8_t> flags;

    /// Rank among the preceding siblings that share the tag (0-based).
    std::vector<int32_t> pos;
    /// Half-open end of the subtree: m is a proper descendant of n iff
    /// n < m < end[n].
    std::vector<NodeId> end;
    /// Children of n, ordered by (tag, document order), are
    /// child_by_tag[child_begin[n] .. child_begin[n + 1]); so the children
    /// with one tag are a contiguous run, the k-th of which has pos k.
    std::vector<int32_t> child_begin;  ///< num_nodes + 1 entries
    std::vector<NodeId> child_by_tag;  ///< num_nodes - 1 entries
    /// Nodes with tag t, in preorder, are
    /// postings[posting_begin[t] .. posting_begin[t + 1]).
    std::vector<int32_t> posting_begin;  ///< num_tags + 1 entries
    std::vector<NodeId> postings;
    /// Per dictionary entry: ParseNumber of the value.
    std::vector<std::optional<double>> dict_number;
    /// Distinct (tag, pos) pairs of non-root nodes in first-seen node order.
    std::vector<std::pair<TagId, int32_t>> tag_pos_pairs;
  };

  friend class HdtBuilder;
  explicit Hdt(std::shared_ptr<const Storage> s) : s_(std::move(s)) {}

  std::shared_ptr<const Storage> s_;
};

/// Emits one Hdt. Nodes are appended under any existing node; the parsers
/// append in document order (preorder), which makes Finish() a few linear
/// passes. Appending elsewhere is allowed too (tests, tree edits): Finish()
/// then renumbers the nodes to preorder, so builder ids and tree ids
/// differ.
class HdtBuilder {
 public:
  /// Creates the root node. Must be called exactly once, first.
  NodeId AddRoot(std::string_view tag);

  /// Appends a child under `parent`; its pos is the number of children of
  /// `parent` with the same tag appended before it. If `data` is supplied
  /// the node is created as a data-carrying leaf.
  NodeId AddChild(NodeId parent, std::string_view tag);
  NodeId AddChild(NodeId parent, std::string_view tag, std::string_view data);

  /// Appends an attribute-encoded leaf child (see Hdt::IsAttribute).
  NodeId AddAttribute(NodeId parent, std::string_view name,
                      std::string_view value);

  /// Appends a text-run leaf child tagged `text` (see Hdt::IsTextRun).
  NodeId AddTextRun(NodeId parent, std::string_view data);

  /// Attaches data to an existing node, making it a data-carrying leaf.
  /// The node must not get children (Definition 1: only leaves hold data).
  void SetLeafData(NodeId id, std::string_view data);

  /// Builds the indexed tree and leaves the builder empty.
  Hdt Finish();

 private:
  NodeId Append(NodeId parent, std::string_view tag, DataId data,
                uint8_t flags);
  void Renumber();
  void ReorderDictionary();

  Hdt::Storage s_;
  /// The rightmost path (root to the last node) while every node so far
  /// was appended in preorder.
  std::vector<NodeId> open_;
  bool preorder_ = true;
};

}  // namespace mitra::hdt

#endif  // MITRA_HDT_HDT_H_
