// Digrams (paper §II): α = (a, i, b) denotes an edge from an a-labeled
// node to its i-th child labeled b.

#ifndef SLG_REPAIR_DIGRAM_H_
#define SLG_REPAIR_DIGRAM_H_

#include <cstdint>
#include <string>

#include "src/tree/label_table.h"
#include "src/tree/tree.h"

namespace slg {

struct Digram {
  LabelId parent_label = kNoLabel;  // a
  int child_index = 0;              // i (1-based)
  LabelId child_label = kNoLabel;   // b

  bool operator==(const Digram& o) const {
    return parent_label == o.parent_label && child_index == o.child_index &&
           child_label == o.child_label;
  }
};

struct DigramHash {
  size_t operator()(const Digram& d) const {
    uint64_t h = static_cast<uint32_t>(d.parent_label);
    h = h * 0x9e3779b97f4a7c15ULL + static_cast<uint32_t>(d.child_index);
    h = h * 0x9e3779b97f4a7c15ULL + static_cast<uint32_t>(d.child_label);
    h ^= h >> 29;
    return static_cast<size_t>(h * 0xbf58476d1ce4e5b9ULL);
  }
};

// Lexicographic order on (parent_label, child_index, child_label):
// the deterministic tie-break both digram indexes (tree and grammar)
// use for most-frequent selection — they must agree so that the
// lockstep and mode-equivalence tests hold.
inline bool DigramLess(const Digram& a, const Digram& b) {
  if (a.parent_label != b.parent_label) return a.parent_label < b.parent_label;
  if (a.child_index != b.child_index) return a.child_index < b.child_index;
  return a.child_label < b.child_label;
}

// rank(α) = rank(a) + rank(b) - 1: parameter count of the pattern rule.
int DigramRank(const Digram& d, const LabelTable& labels);

// The pattern t_X representing α:
//   a(y1,..,y_{i-1}, b(y_i,..,y_{i+n-1}), y_{i+n},..,y_{m+n-1}).
Tree MakePattern(const Digram& d, LabelTable* labels);

// Debug rendering "(a,i,b)".
std::string DigramToString(const Digram& d, const LabelTable& labels);

// In-place digram replacement: given node v (labeled a) whose
// child_index-th child is w (labeled b), splices a fresh node labeled
// `x` in v's place with children v.1..v.(i-1), w.1..w.n, v.(i+1)..v.m,
// and frees v and w. Returns the new node.
NodeId ReplaceDigramNodes(Tree* t, NodeId v, int child_index, LabelId x);

}  // namespace slg

#endif  // SLG_REPAIR_DIGRAM_H_
