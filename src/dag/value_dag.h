// Streaming evaluation of val(G) into a minimal DAG (hash-consing).
//
// Classic udc materializes val(G) as a tree, which is linear in the
// *derived* document — exponential in |G| in the worst case. The
// evaluator here expands the grammar call-by-call but interns every
// constructed subtree in a DagPool (Buneman/Grohe/Koch hash-consing,
// the same sharing dag_builder.h applies to plain trees), so the cost
// is proportional to the number of distinct (rule, argument-tuple)
// expansions plus the number of distinct subtrees of val(G) — the
// exponential corpora never materialize.
//
// A DagEvaluator kept alive across evaluations is the cross-round
// subtree pool of UdcSession (src/update/udc.h): the pool only ever
// grows, and per-rule expansion memos survive between calls for every
// rule whose right-hand side (and transitive callees) did not change —
// round N+1 re-expands only the spine damaged by the batch's updates
// and re-hashes the rule bodies (O(|G|), not O(val(G))) to find it.

#ifndef SLG_DAG_VALUE_DAG_H_
#define SLG_DAG_VALUE_DAG_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/grammar/grammar.h"
#include "src/grammar/value.h"
#include "src/tree/label_table.h"

namespace slg {

// Index into a DagPool. Distinct ids represent structurally distinct
// subtrees (within one pool).
using DagId = int32_t;
inline constexpr DagId kNilDag = -1;

// Append-only hash-consed store of (label, child ids) nodes: Intern()
// returns the existing id for a signature seen before, so equal ids
// mean equal subtrees. Ids stay valid forever — evaluations in later
// rounds share nodes interned by earlier ones.
class DagPool {
 public:
  // Interns the node; children must already be pool ids.
  DagId Intern(LabelId label, const DagId* children, int num_children);

  LabelId label(DagId d) const { return nodes_[Index(d)].label; }
  int num_children(DagId d) const { return nodes_[Index(d)].num_children; }
  const DagId* children(DagId d) const {
    return children_.data() + nodes_[Index(d)].first_child;
  }

  // Total nodes ever interned (the cumulative pool space of a session).
  int64_t size() const { return static_cast<int64_t>(nodes_.size()); }

  // Node count of the tree `d` unfolds to; saturates at kSizeCap.
  int64_t TreeSize(DagId d) const { return nodes_[Index(d)].tree_size; }

  // Materializes the unfolding of `d` into `out` (detached subtree,
  // root returned). Fails with OutOfRange beyond `max_nodes`.
  StatusOr<NodeId> Unfold(DagId d, Tree* out, int64_t max_nodes) const;

 private:
  struct Node {
    LabelId label = kNoLabel;
    int32_t first_child = 0;  // offset into children_
    int32_t num_children = 0;
    int64_t tree_size = 1;  // saturating unfolded node count
  };

  size_t Index(DagId d) const {
    SLG_DCHECK(d >= 0 && d < static_cast<DagId>(nodes_.size()));
    return static_cast<size_t>(d);
  }

  std::vector<Node> nodes_;
  std::vector<DagId> children_;
  // FNV hash of (label, children) -> candidate ids; collisions resolved
  // by comparing against node storage (bucketed, like the digram
  // indexes — signatures are never stored twice).
  std::unordered_map<uint64_t, std::vector<DagId>> buckets_;
};

struct DagEvalStats {
  int64_t rules_total = 0;
  // Rules whose memoized expansions from the previous evaluation were
  // kept (right-hand side and transitive callees unchanged).
  int64_t rules_reused = 0;
  // (rule, argument-tuple) frames actually expanded this evaluation.
  int64_t expansions = 0;
  // Pool nodes created by this evaluation.
  int64_t nodes_added = 0;
};

// Evaluates grammars into an owned DagPool. Keep one instance alive
// across udc rounds to share the pool and the per-rule memos.
class DagEvaluator {
 public:
  // Returns the pool id of val(g). Fails with OutOfRange when the
  // pool would exceed `max_pool_nodes` live nodes — the DAG-mode
  // analogue of the classic materialization budget (note it bounds
  // *distinct* subtrees across the whole session, not derived size).
  StatusOr<DagId> Eval(const Grammar& g,
                       int64_t max_pool_nodes = kDefaultValueBudget);

  const DagPool& pool() const { return pool_; }
  const DagEvalStats& last_stats() const { return stats_; }

 private:
  struct ArgsHash {
    size_t operator()(const std::vector<DagId>& args) const {
      uint64_t h = 0xcbf29ce484222325ULL;
      for (DagId a : args) {
        h ^= static_cast<uint64_t>(static_cast<uint32_t>(a));
        h *= 0x100000001b3ULL;
      }
      return static_cast<size_t>(h);
    }
  };

  struct RuleCache {
    // Fingerprint of the rule body as of the last evaluation: 64-bit
    // structural hash plus node count and the callee list (a terminal
    // gaining or losing a rule changes the expansion even when the
    // body tree is untouched).
    uint64_t rhs_hash = 0;
    int64_t rhs_nodes = 0;
    std::vector<LabelId> callees;
    std::unordered_map<std::vector<DagId>, DagId, ArgsHash> memo;
    bool seen = false;  // scratch: present in the current grammar
  };

  DagPool pool_;
  std::unordered_map<LabelId, RuleCache> rules_;
  DagEvalStats stats_;
};

struct DagForestOptions {
  // Subtrees with fewer nodes than this are never emitted as rules.
  int min_subtree_size = 2;
  // Shared subtrees emitted as rules initially, ranked by savings
  // (references-1) x unfolded size. Few big winners beat full sharing
  // for the repair that follows: every extra rule is a cut the tree
  // repair cannot see digrams across, and RePair re-discovers
  // duplicate subtrees on its own — the rules only have to keep the
  // materialized forest small. Grown geometrically (never shrunk)
  // until the forest fits the limits below.
  int initial_rules = 8;
  // Soft limit: the forest may use up to forest_factor x the reachable
  // sub-DAG (with a small floor for tiny documents) before more rules
  // are added.
  int64_t forest_factor = 8;
  // Hard budget: fail with OutOfRange if even full sharing cannot get
  // the forest under this many nodes.
  int64_t max_forest_nodes = kDefaultValueBudget;
};

// The sub-DAG reachable from a root, emitted as a single tree for
// TreeRePair: sep(body_0, body_1, .., body_k) where body_0 unfolds the
// root, body_i the i-th selected shared subtree, and each body cuts at
// selected subtrees by a rank-0 D label (rule_labels[i-1]). The sep
// label occurs exactly once, so no digram through it is ever frequent:
// tree-repairing the forest compresses all bodies jointly and keeps
// them separable at the sep children (see UdcSession's forest
// compressor).
struct DagForest {
  Tree forest;
  LabelTable labels;  // input labels + start/rule/sep labels
  LabelId start = kNoLabel;
  LabelId sep = kNoLabel;
  std::vector<LabelId> rule_labels;  // label of body_i is rule_labels[i-1]
  // Distinct subtrees reachable from the root (the decompress-leg
  // space) and the node count of the emitted forest (the compress-leg
  // space).
  int64_t reachable_nodes = 0;
  int64_t forest_nodes = 0;
};

StatusOr<DagForest> DagToForest(const DagPool& pool, DagId root,
                                const LabelTable& labels,
                                const DagForestOptions& options = {});

}  // namespace slg

#endif  // SLG_DAG_VALUE_DAG_H_
