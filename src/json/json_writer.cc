#include "json/json_writer.h"

#include <vector>

#include "common/json_escape.h"
#include "common/strings.h"

namespace mitra::json {

namespace {

/// Strict RFC 8259 number grammar. ParseNumber (strtod-based) is too
/// lenient here: it accepts "007", "1." or "-.5", and emitting those
/// unquoted would make the writer produce text our own parser rejects
/// (surfaced by the JSON round-trip fuzzer on string data "007").
bool IsJsonNumber(std::string_view s) {
  size_t i = 0;
  auto digit = [&](size_t k) {
    return k < s.size() && s[k] >= '0' && s[k] <= '9';
  };
  if (i < s.size() && s[i] == '-') ++i;
  if (!digit(i)) return false;
  if (s[i] == '0') {
    ++i;
  } else {
    while (digit(i)) ++i;
  }
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (!digit(i)) return false;
    while (digit(i)) ++i;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digit(i)) return false;
    while (digit(i)) ++i;
  }
  return i == s.size();
}

bool IsUnquotedPrimitive(std::string_view data) {
  if (data == "true" || data == "false" || data == "null") return true;
  return IsJsonNumber(data);
}

struct Writer {
  const hdt::Hdt& t;
  const JsonWriteOptions& opts;
  std::string out;

  void Indent(int depth) {
    if (opts.pretty) out.append(static_cast<size_t>(depth) * 2, ' ');
  }
  void Newline() {
    if (opts.pretty) out.push_back('\n');
  }

  /// Emits the primitive value of a leaf node.
  void EmitPrimitive(hdt::NodeId id) {
    std::string_view data = t.Data(id);
    if (IsUnquotedPrimitive(data)) {
      out.append(data);
    } else {
      out.push_back('"');
      common::AppendJsonEscaped(&out, data);
      out.push_back('"');
    }
  }

  /// Emits the value denoted by one node: a primitive for data leaves,
  /// `{}` for empty non-data leaves, an object for internal nodes.
  Status EmitValue(hdt::NodeId id, int depth) {
    if (t.HasData(id)) {
      EmitPrimitive(id);
      return Status();
    }
    return EmitObject(id, depth);
  }

  /// Emits the children of `id` as a JSON object, grouping same-tag
  /// children into arrays.
  Status EmitObject(hdt::NodeId id, int depth) {
    if (depth > kMaxWriteDepth) {
      return Status::InvalidArgument("tree nesting too deep to serialize (>" +
                                     std::to_string(kMaxWriteDepth) + ")");
    }
    const hdt::ChildRange children = t.Children(id);
    if (children.empty()) {
      out.append("{}");
      return Status();
    }
    // Group by tag in first-occurrence order.
    std::vector<hdt::TagId> order;
    std::vector<std::vector<hdt::NodeId>> groups;
    for (hdt::NodeId c : children) {
      hdt::TagId tag = t.Tag(c);
      size_t gi = 0;
      for (; gi < order.size(); ++gi) {
        if (order[gi] == tag) break;
      }
      if (gi == order.size()) {
        order.push_back(tag);
        groups.emplace_back();
      }
      groups[gi].push_back(c);
    }
    out.push_back('{');
    Newline();
    for (size_t gi = 0; gi < order.size(); ++gi) {
      Indent(depth + 1);
      out.push_back('"');
      common::AppendJsonEscaped(&out, t.TagName(order[gi]));
      out.append("\": ");
      const auto& group = groups[gi];
      if (group.size() == 1) {
        MITRA_RETURN_IF_ERROR(EmitValue(group[0], depth + 1));
      } else {
        out.push_back('[');
        Newline();
        for (size_t i = 0; i < group.size(); ++i) {
          Indent(depth + 2);
          MITRA_RETURN_IF_ERROR(EmitValue(group[i], depth + 2));
          if (i + 1 < group.size()) out.push_back(',');
          Newline();
        }
        Indent(depth + 1);
        out.push_back(']');
      }
      if (gi + 1 < order.size()) out.push_back(',');
      Newline();
    }
    Indent(depth);
    out.push_back('}');
    return Status();
  }
};

}  // namespace

Result<std::string> WriteJson(const hdt::Hdt& tree,
                              const JsonWriteOptions& opts) {
  if (tree.empty()) return std::string("{}");
  Writer w{tree, opts, {}};
  MITRA_RETURN_IF_ERROR(w.EmitObject(tree.root(), 0));
  return std::move(w.out);
}

}  // namespace mitra::json
