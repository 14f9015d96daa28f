#ifndef MITRA_JSON_JSON_PARSER_H_
#define MITRA_JSON_JSON_PARSER_H_

#include <string>
#include <string_view>

#include "common/governor.h"
#include "common/status.h"
#include "hdt/hdt.h"

/// \file json_parser.h
/// JSON front-end plug-in (paper §3 "JSON documents as HDTs", §6, Fig. 14).
///
/// Parses a JSON document into an Hdt with the paper's encoding: each node
/// corresponds to a key-value pair (tag = key, data = value when the value
/// is primitive), and a key mapping to an array of length n yields n sibling
/// nodes with positions 0..n-1 (Example 2: `k: [18,45,32]` becomes
/// `(k,0,18),(k,1,45),(k,2,32)`).
///
/// Encoding details this implementation fixes (the paper leaves them open):
///  - the document is wrapped in a virtual root node tagged `root`
///    (matching Fig. 4a/Fig. 5, where the HDT root is above the top-level
///    object's keys);
///  - elements of a *top-level* array get tag `item`;
///  - elements of an array nested directly inside another array reuse the
///    enclosing array's key as their tag;
///  - numbers keep their source lexeme as data (no re-formatting);
///    `true` / `false` / `null` become the strings "true"/"false"/"null".
///
/// The full JSON grammar (RFC 8259) is supported, including string escape
/// sequences and \uXXXX (with surrogate pairs). Errors carry line:column.

namespace mitra::json {

struct JsonParseOptions {
  /// Optional resource governor: the parser checks it once per value and
  /// charges hdt::kBytesPerNode for every node it creates, so a poisoned
  /// or pathological document surfaces kResourceExhausted instead of
  /// consuming unbounded memory/time.
  common::Governor* governor = nullptr;
};

/// Parses `input` into a hierarchical data tree.
Result<hdt::Hdt> ParseJson(std::string_view input);
Result<hdt::Hdt> ParseJson(std::string_view input,
                           const JsonParseOptions& opts);

}  // namespace mitra::json

#endif  // MITRA_JSON_JSON_PARSER_H_
