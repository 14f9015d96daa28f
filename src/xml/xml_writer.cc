#include "xml/xml_writer.h"

#include "xml/xml_parser.h"

namespace mitra::xml {

namespace {

Status WriteNode(const hdt::Hdt& t, hdt::NodeId id, const WriteOptions& opts,
                 int depth, std::string* out) {
  if (depth > kMaxWriteDepth) {
    return Status::InvalidArgument("tree nesting too deep to serialize (>" +
                                   std::to_string(kMaxWriteDepth) + ")");
  }
  auto indent = [&]() {
    if (opts.pretty) out->append(static_cast<size_t>(depth) * 2, ' ');
  };
  auto newline = [&]() {
    if (opts.pretty) out->push_back('\n');
  };

  const std::string_view tag = t.NodeTagName(id);

  // Only provenance-marked text runs render as character data; an element
  // that merely happens to be *named* `text` renders as a normal element
  // (otherwise `<text>x</text>` would collapse into its parent's data on
  // re-parse — a round-trip asymmetry the doc fuzzer surfaced).
  if (t.IsTextRun(id) && t.HasData(id)) {
    indent();
    out->append(EscapeText(t.Data(id)));
    newline();
    return Status();
  }

  indent();
  out->push_back('<');
  out->append(tag);
  // Attribute-encoded children render as real attributes.
  size_t non_attr_children = 0;
  const hdt::ChildRange children = t.Children(id);
  for (hdt::NodeId c : children) {
    if (t.IsAttribute(c)) {
      out->push_back(' ');
      out->append(t.NodeTagName(c));
      out->append("=\"");
      out->append(EscapeAttribute(std::string(t.Data(c))));
      out->push_back('"');
    } else {
      ++non_attr_children;
    }
  }
  if (non_attr_children == 0 && !children.empty()) {
    if (t.HasData(id)) {
      out->push_back('>');
      out->append(EscapeText(t.Data(id)));
      out->append("</");
      out->append(tag);
      out->push_back('>');
    } else {
      out->append("/>");
    }
    newline();
    return Status();
  }
  if (children.empty()) {
    if (t.HasData(id)) {
      out->push_back('>');
      out->append(EscapeText(t.Data(id)));
      out->append("</");
      out->append(tag);
      out->push_back('>');
    } else {
      out->append("/>");
    }
    newline();
    return Status();
  }
  out->push_back('>');
  newline();
  for (hdt::NodeId c : children) {
    if (!t.IsAttribute(c)) {
      MITRA_RETURN_IF_ERROR(WriteNode(t, c, opts, depth + 1, out));
    }
  }
  indent();
  out->append("</");
  out->append(tag);
  out->push_back('>');
  newline();
  return Status();
}

}  // namespace

Result<std::string> WriteXml(const hdt::Hdt& tree, const WriteOptions& opts) {
  std::string out;
  if (opts.prolog) {
    out += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
    if (opts.pretty) out += "\n";
  }
  if (!tree.empty()) {
    MITRA_RETURN_IF_ERROR(WriteNode(tree, tree.root(), opts, 0, &out));
  }
  return out;
}

}  // namespace mitra::xml
