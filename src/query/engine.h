// QueryEngine — memoized evaluation of path queries directly on the
// grammar DAG, without decompression.
//
// The compiled plan (plan.h) turns a query into a stateset transducer
// over the binary encoding. The key observation making evaluation
// sub-linear: the transducer is *compositional over rules*. What a
// call to rule B contributes depends only on (B, ctx) — the stateset
// context arriving at the call — not on where the call sits in the
// document. The engine therefore evaluates each rule body once per
// distinct context it is reached under, memoizing per (rule, ctx):
//   * count     — query matches in the rule's material (arguments
//                 excluded; callers add those through the parameter
//                 intervals of the shared RuleIndex),
//   * exits     — the context flowing out at each parameter node,
//                 which is the context of the corresponding argument
//                 at every instantiation,
//   * matches   — per-body-node material match counts (only for
//                 first/nth, which descend by them).
// Since a document's rule set is shared massively across the tree,
// the number of (rule, ctx) pairs — and so the work — is typically
// far below the document size; rules_visited is bounded by the rule
// count times the number of distinct contexts, and the contexts seen
// in practice collapse to a handful.
//
// Each pair's body is walked exactly once. Evaluation keeps a stack of
// resumable frames, one per pair in progress: a frame's forward pass
// (contexts down the body, in preorder) stops at a call whose
// (callee, ctx) is not memoized yet, the callee's frame is pushed, and
// when it finishes the caller resumes at that same call, now a memo
// hit. A call's arguments get their contexts from the callee's exits,
// so a body whose calls nest inside each other's arguments discovers
// its pairs one nesting level at a time, without walking again what it
// already walked. The stack is iterative (the rule DAG can be deep)
// and never holds a pair twice (the DAG is acyclic).
//
// Two shortcuts keep contexts from proliferating:
//   * the empty context contributes nothing and flows zeros to every
//     argument — handled inline, never memoized;
//   * a context of only descendant states whose pending labels the
//     rule's hashed label filter rules out cannot fire anywhere in
//     the rule's material, so it reproduces itself at every exit with
//     zero matches — also answered without a memo entry.
//
// first(p)/nth(p, k) reuse the memoized per-node match counts to
// steer a root-to-match descent (the same frame walk as
// SnapshotNav::FindLabel, via the shared ResolveToTerminal), so the
// position comes out in O(depth · rank) after evaluation.
//
// Status contract (matching the other read surfaces): malformed query
// text or an over-complex plan → InvalidArgument; nth with k < 1 →
// InvalidArgument; first/nth with fewer than k matches → NotFound.
// count/exists always succeed on a valid query.

#ifndef SLG_QUERY_ENGINE_H_
#define SLG_QUERY_ENGINE_H_

#include <cstdint>
#include <string_view>

#include "src/common/status.h"
#include "src/grammar/grammar.h"
#include "src/grammar/rule_index.h"
#include "src/query/plan.h"
#include "src/query/query.h"

namespace slg {

// Work accounting of one evaluation, for tests and benchmarks.
// rules_visited is the number of distinct rules that needed at least
// one memo entry — by construction at most the grammar's rule count.
// nodes_walked counts the body nodes the forward passes went past; it
// equals the sum of the body sizes over the memo_entries pairs, since
// each pair's body is walked once.
struct QueryStats {
  int64_t rules_visited = 0;
  int64_t memo_entries = 0;  // distinct (rule, ctx) pairs evaluated
  int64_t memo_hits = 0;     // call sites answered from the memo
  int64_t nodes_walked = 0;  // body nodes walked by forward passes
};

struct QueryResult {
  Aggregate aggregate = Aggregate::kCount;
  int64_t count = 0;   // matches in the document (always filled)
  bool exists = false;
  int64_t position = 0;  // 1-based binary preorder; first/nth only
  QueryStats stats;
};

class QueryEngine {
 public:
  // Borrows g and its RuleIndex for its lifetime — GrammarSnapshot
  // bundles both. Stateless between runs; any number of threads may
  // Run() on one instance concurrently.
  QueryEngine(const Grammar* g, const RuleIndex* index)
      : g_(g), index_(index) {}

  // perfbench/lifecycle.cc calls this; remove at the next benchmark change.
  QueryEngine(const Grammar* g, const RuleIndex* meta,
              const RuleIndex* summary)
      : QueryEngine(g, meta) {
    SLG_CHECK_MSG(meta == summary, "QueryEngine takes one RuleIndex");
  }

  StatusOr<QueryResult> Run(std::string_view query) const;
  StatusOr<QueryResult> Run(const Query& query) const;
  StatusOr<QueryResult> Run(const QueryPlan& plan) const;

 private:
  const Grammar* g_;
  const RuleIndex* index_;
};

}  // namespace slg

#endif  // SLG_QUERY_ENGINE_H_
