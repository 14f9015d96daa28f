#ifndef MITRA_XML_XML_PARSER_H_
#define MITRA_XML_XML_PARSER_H_

#include <string>
#include <string_view>

#include "common/governor.h"
#include "common/status.h"
#include "hdt/hdt.h"

/// \file xml_parser.h
/// XML front-end plug-in (paper §3 "XML documents as HDTs", §6, Fig. 14).
///
/// Parses a self-contained XML document into an Hdt with the paper's
/// encoding:
///  - each element becomes a node tagged with the element name;
///  - each attribute becomes a nested *leaf child* tagged with the
///    attribute name, carrying the attribute value as data;
///  - if an element holds only character data (no attributes, no child
///    elements), that text is stored as the element node's own data, so
///    the node is a data-carrying leaf (this matches Fig. 4a, where
///    `<name>Alice</name>` is the single node `name = "Alice"`);
///  - otherwise every non-whitespace character-data run becomes a nested
///    leaf child tagged `text` (this matches Fig. 8, which addresses mixed
///    content via `pchildren(…, text, 0)`).
///
/// Supported syntax: prolog (`<?xml …?>`), processing instructions,
/// comments, CDATA sections, DOCTYPE (skipped), elements, attributes with
/// single- or double-quoted values, self-closing tags, and the predefined
/// character/numeric entities. Errors are reported with line:column.

namespace mitra::xml {

struct XmlParseOptions {
  /// Optional resource governor: the parser checks it once per element
  /// and charges hdt::kBytesPerNode for every node it creates, so a
  /// poisoned or pathological document surfaces kResourceExhausted
  /// instead of consuming unbounded memory/time.
  common::Governor* governor = nullptr;
};

/// Parses `input` into a hierarchical data tree.
Result<hdt::Hdt> ParseXml(std::string_view input);
Result<hdt::Hdt> ParseXml(std::string_view input,
                          const XmlParseOptions& opts);

/// Decodes XML character entities (&lt; &gt; &amp; &quot; &apos; and
/// numeric &#NN; / &#xNN;) in `s`. Unknown entities are an error.
Result<std::string> DecodeEntities(std::string_view s);

/// Escapes the five predefined characters for embedding into XML text.
std::string EscapeText(std::string_view s);
/// Escapes for embedding into a double-quoted attribute value.
std::string EscapeAttribute(std::string_view s);

}  // namespace mitra::xml

#endif  // MITRA_XML_XML_PARSER_H_
