// Atomic updates on grammar-compressed binary XML trees (paper §III,
// §V-C): rename, insert-before, delete-subtree.
//
// Nodes are addressed by their 1-based preorder position in the
// *binary* tree val(G). Each operation path-isolates the target and
// then edits the start rule locally; the grammar grows by at most the
// isolation overhead (recompression is the caller's job — that is the
// paper's whole point).
//
// Semantics on the binary encoding (t_u = binary subtree at u):
//  * rename(u, σ):   relabel u; neither old nor new label may be ⊥.
//  * insert(u, s):   insert fragment s as previous sibling of u: if u
//                    is ⊥, t[u/s]; else t[u/s'] with s' = s whose
//                    rightmost ⊥ leaf is replaced by t_u.
//  * delete(u):      remove the XML subtree of u: t[u / t_{u.2}];
//                    u must not be ⊥.

#ifndef SLG_UPDATE_UPDATE_OPS_H_
#define SLG_UPDATE_UPDATE_OPS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/grammar/grammar.h"

namespace slg {

// Relabels the node at `preorder` with the (rank-2) label named
// `new_label`, interning it if needed.
Status RenameNode(Grammar* g, int64_t preorder, std::string_view new_label);

// Inserts a copy of the binary fragment `s` (over g's label table,
// rightmost leaf must be ⊥) before the node at `preorder`.
Status InsertTreeBefore(Grammar* g, int64_t preorder, const Tree& s);

// Deletes the XML subtree rooted at the node at `preorder`.
Status DeleteSubtree(Grammar* g, int64_t preorder);

// Label name of the node at `preorder` (isolates it; mainly for tests
// and tools).
StatusOr<std::string> ReadLabel(Grammar* g, int64_t preorder);

// The rightmost leaf of a binary fragment (follow last children).
NodeId RightmostLeaf(const Tree& t, NodeId v);

// Removes rules no longer referenced from the start rule's reachable
// set (deletions can strand rules). Returns the number removed.
int CollectGarbageRules(Grammar* g);

// The same, given refs[l] = call sites of rule l in g's rule bodies
// (by LabelId, covering every rule), e.g. kept up to date by a batch
// instead of counted over the whole grammar.
int RemoveUnreferencedRules(Grammar* g, std::vector<int32_t> refs);

// Plain-tree counterparts of the grammar operations (same semantics,
// applied to an uncompressed binary tree). Used by the workload
// generator and as the reference implementation in tests.
void ApplyInsertToTree(Tree* t, int64_t preorder, const Tree& s);
void ApplyDeleteToTree(Tree* t, int64_t preorder);
void ApplyRenameToTree(Tree* t, int64_t preorder, LabelId label);

}  // namespace slg

#endif  // SLG_UPDATE_UPDATE_OPS_H_
