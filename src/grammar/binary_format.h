// Compact binary serialization for grammars — persistence for
// compressed documents (save once, reload without recompressing).
//
// Format (little-endian varints):
//   magic "SLG1"
//   label count; per label: name length, name bytes, rank, param index
//   start label id
//   rule count; per rule: lhs id, node count, node labels in preorder
// A node's child count equals its label's rank (parameters have rank
// 0), so the preorder label sequence determines the tree uniquely.
// Load validates the result as a document grammar (ValidateDocument:
// no terminal of rank above 2).

#ifndef SLG_GRAMMAR_BINARY_FORMAT_H_
#define SLG_GRAMMAR_BINARY_FORMAT_H_

#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/grammar/grammar.h"

namespace slg {

std::string SerializeGrammar(const Grammar& g);

StatusOr<Grammar> DeserializeGrammar(std::string_view bytes);

}  // namespace slg

#endif  // SLG_GRAMMAR_BINARY_FORMAT_H_
