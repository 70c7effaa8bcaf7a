// Interned ranked alphabet shared by trees and grammars.
//
// Every node label in the library is a small integer LabelId into a
// LabelTable. The table stores, per label, its spelling and its rank
// (number of children every node with this label must have).
//
// Three special families of labels exist:
//  * kNullLabel (id 0, spelled "~", rank 0): the ⊥ "empty node" of the
//    paper's binary XML encoding (non-existing first-child/next-sibling).
//  * parameters y1..ym (spelled "$1", "$2", ...): formal parameters of
//    grammar rules, rank 0, identified by param_index() >= 1.
//  * everything else: ordinary ranked symbols. Whether such a symbol is
//    a terminal or a nonterminal is a property of a Grammar (a label is
//    a nonterminal iff the grammar has a rule for it), not of the table.

#ifndef SLG_TREE_LABEL_TABLE_H_
#define SLG_TREE_LABEL_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"

namespace slg {

using LabelId = int32_t;

inline constexpr LabelId kNoLabel = -1;
inline constexpr LabelId kNullLabel = 0;  // The ⊥ empty-node label.

class LabelTable {
 public:
  LabelTable();

  LabelTable(const LabelTable&) = default;
  LabelTable& operator=(const LabelTable&) = default;
  LabelTable(LabelTable&&) = default;
  LabelTable& operator=(LabelTable&&) = default;

  // Interns `name` with the given rank. If the name already exists its
  // rank must match (checked).
  LabelId Intern(std::string_view name, int rank);

  // Returns the id for `name`, or kNoLabel if not interned.
  LabelId Find(std::string_view name) const;

  // Returns the parameter label y<index> (index >= 1), interning it on
  // first use. Spelled "$<index>".
  LabelId Param(int index);

  // Creates a fresh label with a unique generated name ("<prefix>0",
  // "<prefix>1", ... skipping collisions) and the given rank. Used for
  // digram nonterminals and exported fragment rules.
  LabelId Fresh(std::string_view prefix, int rank);

  const std::string& Name(LabelId id) const { return entries_[Index(id)].name; }
  int Rank(LabelId id) const { return entries_[Index(id)].rank; }

  // 1-based parameter index, or 0 if `id` is not a parameter.
  int ParamIndex(LabelId id) const { return entries_[Index(id)].param_index; }
  bool IsParam(LabelId id) const { return ParamIndex(id) > 0; }

  int size() const { return static_cast<int>(entries_.size()); }

  // State of the Fresh() name generator. Serialized with the grammar
  // image: fresh-name generation is history-dependent (the counter is
  // shared across prefixes and skips collisions), so round-tripping a
  // grammar must restore it — otherwise a recompression after
  // deserialize mints different rule names than the live grammar
  // would, and the durable store's recovered-bytes-identical guarantee
  // breaks.
  int fresh_counter() const { return fresh_counter_; }
  void set_fresh_counter(int counter) { fresh_counter_ = counter; }

 private:
  struct Entry {
    std::string name;
    int rank = 0;
    int param_index = 0;  // 1-based; 0 means not a parameter.
  };

  size_t Index(LabelId id) const {
    SLG_DCHECK(id >= 0 && id < static_cast<LabelId>(entries_.size()));
    return static_cast<size_t>(id);
  }

  std::vector<Entry> entries_;
  std::unordered_map<std::string, LabelId> by_name_;
  std::vector<LabelId> params_;  // params_[i] = label of y_{i+1}.
  int fresh_counter_ = 0;
};

}  // namespace slg

#endif  // SLG_TREE_LABEL_TABLE_H_
