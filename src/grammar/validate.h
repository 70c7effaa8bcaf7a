// Structural validation of SLCF grammars.
//
// Checks every invariant the algorithms rely on and reports the first
// violation with a precise message:
//  * a start rule exists, has rank 0, and is never referenced;
//  * the call graph is acyclic (straight-line property);
//  * every node has exactly rank(label) children;
//  * rule bodies are not a bare parameter;
//  * each rule of rank m uses exactly the parameters y1..ym, each
//    exactly once, in preorder order (the TreeRePair convention);
//  * every referenced nonterminal has a rule; arenas are consistent.

#ifndef SLG_GRAMMAR_VALIDATE_H_
#define SLG_GRAMMAR_VALIDATE_H_

#include "src/common/status.h"
#include "src/grammar/grammar.h"

namespace slg {

Status Validate(const Grammar& g);

// Validate, plus the shape of a served document: a binary-encoded XML
// tree (first child, next sibling), so no terminal has rank above 2.
// The query engine gives a terminal's third and later children no
// context, while a pruned call hands every argument its own; on a
// wider terminal the answers would depend on how the grammar is
// factored.
Status ValidateDocument(const Grammar& g);

}  // namespace slg

#endif  // SLG_GRAMMAR_VALIDATE_H_
