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
//
// A table is a value, but copies share one immutable state until
// either side interns a new name, creates a parameter or fresh label,
// or sets the fresh-name counter: that first mutation copies the state
// (as Grammar::mutable_rhs copies a shared rule body). So Grammar::Clone
// — once per write — costs a reference count, not a copy of every
// name. Copies may be read and mutated on different threads.

#ifndef SLG_TREE_LABEL_TABLE_H_
#define SLG_TREE_LABEL_TABLE_H_

#include <cstdint>
#include <memory>
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

  // Copies share the state; moves take it and leave the source an
  // empty table (only "~"), as a fresh one.
  LabelTable(const LabelTable&) = default;
  LabelTable& operator=(const LabelTable&) = default;
  LabelTable(LabelTable&& other) noexcept;
  LabelTable& operator=(LabelTable&& other) noexcept;

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

  const std::string& Name(LabelId id) const { return Get(id).name; }
  int Rank(LabelId id) const { return Get(id).rank; }

  // 1-based parameter index, or 0 if `id` is not a parameter.
  int ParamIndex(LabelId id) const { return Get(id).param_index; }
  bool IsParam(LabelId id) const { return ParamIndex(id) > 0; }

  int size() const { return static_cast<int>(state_->entries.size()); }

  // State of the Fresh() name generator. Serialized with the grammar
  // image: fresh-name generation is history-dependent (the counter is
  // shared across prefixes and skips collisions), so round-tripping a
  // grammar must restore it — otherwise a recompression after
  // deserialize mints different rule names than the live grammar
  // would, and the durable store's recovered-bytes-identical guarantee
  // breaks.
  int fresh_counter() const { return state_->fresh_counter; }
  void set_fresh_counter(int counter);

 private:
  struct Entry {
    std::string name;
    int rank = 0;
    int param_index = 0;  // 1-based; 0 means not a parameter.
  };

  struct State {
    std::vector<Entry> entries;
    std::unordered_map<std::string, LabelId> by_name;
    std::vector<LabelId> params;  // params[i] = label of y_{i+1}.
    int fresh_counter = 0;
  };

  const Entry& Get(LabelId id) const {
    SLG_DCHECK(id >= 0 && id < static_cast<LabelId>(state_->entries.size()));
    return state_->entries[static_cast<size_t>(id)];
  }

  // The state for editing: unshared first (one copy) if another table
  // holds it too.
  State& Mutable();

  // The state of a new table (only "~"), shared by every new or
  // moved-from table until its first mutation.
  static const std::shared_ptr<State>& EmptyState();

  // Never null. Shared by copies; edited only through Mutable().
  std::shared_ptr<State> state_;
};

}  // namespace slg

#endif  // SLG_TREE_LABEL_TABLE_H_
