#include "src/update/batch.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/core/grammar_repair.h"
#include "src/grammar/inliner.h"
#include "src/grammar/stats.h"
#include "src/grammar/value.h"
#include "src/update/update_ops.h"

namespace slg {

void BatchUpdater::Seed(const RuleIndex* index) {
  index_ = index;
  derived_ = index->StaticSizes(g_->start());
  start_calls_ = index->StartCalls(g_->start());
}

void BatchUpdater::EnsureIndex() {
  if (index_ != nullptr) return;
  owned_ = std::make_unique<const RuleIndex>(RuleIndex::Build(*g_));
  Seed(owned_.get());
}

void BatchUpdater::NoteDamage(LabelId rule) {
  if (damage_seen_.insert(rule).second) damage_.push_back(rule);
}

void BatchUpdater::CountStartCalls(const Tree& t, NodeId subtree_root,
                                   int32_t delta) {
  t.VisitPreorder(subtree_root, [&](NodeId v) {
    LabelId l = t.label(v);
    if (g_->IsNonterminal(l)) start_calls_[static_cast<size_t>(l)] += delta;
  });
}

void BatchUpdater::ComputeDerivedFresh(NodeId subtree_root,
                                       const std::vector<NodeId>& moved) {
  Tree& t = g_->mutable_rhs(g_->start());
  // Fresh material in the start rule: an inlined rule body (isolation
  // partially decompresses) or a copied insert fragment. Parents come
  // before their children in `fresh`; the moved subtrees are not
  // entered.
  std::vector<NodeId> fresh;
  std::vector<NodeId> stack = {subtree_root};
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    if (std::find(moved.begin(), moved.end(), u) != moved.end()) continue;
    fresh.push_back(u);
    for (NodeId c = t.first_child(u); c != kNilNode; c = t.next_sibling(c)) {
      stack.push_back(c);
    }
  }
  edges_added_ += static_cast<int64_t>(fresh.size());
  NoteDamage(g_->start());
  NodeId max_id = static_cast<NodeId>(derived_.size()) - 1;
  for (NodeId f : fresh) max_id = std::max(max_id, f);
  derived_.resize(static_cast<size_t>(max_id) + 1, 0);
  for (auto it = fresh.rbegin(); it != fresh.rend(); ++it) {
    NodeId u = *it;
    int64_t n = SegTotal(t.label(u));
    for (NodeId c = t.first_child(u); c != kNilNode; c = t.next_sibling(c)) {
      n = SizeSatAdd(n, derived_of(c));
    }
    derived_[static_cast<size_t>(u)] = n;
  }
}

void BatchUpdater::RecomputeUpward(NodeId from) {
  Tree& t = g_->mutable_rhs(g_->start());
  for (NodeId p = from; p != kNilNode; p = t.parent(p)) {
    int64_t n = SegTotal(t.label(p));
    for (NodeId c = t.first_child(p); c != kNilNode; c = t.next_sibling(c)) {
      n = SizeSatAdd(n, derived_of(c));
    }
    derived_[static_cast<size_t>(p)] = n;
  }
}

StatusOr<NodeId> BatchUpdater::Isolate(int64_t preorder) {
  if (preorder < 1) {
    return Status::OutOfRange("preorder positions are 1-based");
  }
  EnsureIndex();
  Tree& t = g_->mutable_rhs(g_->start());
  if (preorder > derived_of(t.root())) {
    return Status::OutOfRange("preorder position " + std::to_string(preorder) +
                              " beyond val(G) size " +
                              std::to_string(derived_of(t.root())));
  }

  // Same descent as IsolateNode (path_isolation.cc), against the
  // batch's index and size table instead of per-call rebuilds.
  NodeId v = t.root();
  int64_t k = preorder;  // target is the k-th node of v's derived subtree
  for (;;) {
    LabelId l = t.label(v);
    SLG_CHECK(l >= index_->num_labels() || index_->ParamIndex(l) == 0);
    if (!IsRule(l)) {
      if (k == 1) return v;
      k -= 1;
      NodeId c = t.first_child(v);
      for (; c != kNilNode; c = t.next_sibling(c)) {
        int64_t n = derived_of(c);
        if (k <= n) break;
        k -= n;
      }
      SLG_CHECK(c != kNilNode);
      v = c;
      continue;
    }
    NodeId arg = LocateInCall(*index_, t, v, k,
                              [&](NodeId a) { return derived_of(a); });
    if (arg != kNilNode) {
      v = arg;
      continue;
    }
    // Inside the callee's own material: inline the call. Its argument
    // subtrees move into the copy with their NodeIds and sizes.
    std::vector<NodeId> args;
    for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
      args.push_back(c);
    }
    std::vector<NodeId> new_calls;
    NodeId copy_root = InlineCall(*g_, &t, v, g_->rhs(l), &new_calls);
    --start_calls_[static_cast<size_t>(l)];
    for (NodeId c : new_calls) ++start_calls_[static_cast<size_t>(t.label(c))];
    // The inlined rule joins the damage set (its usage frontier): its
    // body now sits duplicated in the start rule, so the localized
    // repair must see its occurrences to fold the copy back in.
    NoteDamage(l);
    ComputeDerivedFresh(copy_root, args);
    v = copy_root;
  }
}

Status BatchUpdater::Rename(int64_t preorder, std::string_view new_label) {
  StatusOr<NodeId> u = Isolate(preorder);
  if (!u.ok()) return u.status();
  Tree& t = g_->mutable_rhs(g_->start());
  if (t.label(u.value()) == kNullLabel) {
    return Status::InvalidArgument("rename target is the empty node ⊥");
  }
  LabelId existing = g_->labels().Find(new_label);
  if (existing == kNullLabel) {
    return Status::InvalidArgument("cannot rename to ⊥");
  }
  if (existing != kNoLabel && g_->HasRule(existing)) {
    // Relabeling the node with a rule's label would turn it into a
    // call of that rule.
    return Status::InvalidArgument("rename target names a grammar rule");
  }
  if (existing != kNoLabel && g_->labels().Rank(existing) != 2) {
    return Status::InvalidArgument(
        "rename label exists with a rank other than 2");
  }
  LabelId nl =
      existing != kNoLabel ? existing : g_->labels().Intern(new_label, 2);
  // Old and new labels are both rank-2 terminals (SegTotal 1): no
  // derived size changes.
  t.set_label(u.value(), nl);
  NoteDamage(g_->start());
  return Status::Ok();
}

Status BatchUpdater::InsertBefore(int64_t preorder, const Tree& s) {
  if (s.empty()) return Status::InvalidArgument("empty insert fragment");
  bool calls_rule = false;
  bool too_wide = false;
  s.VisitPreorder(s.root(), [&](NodeId v) {
    calls_rule = calls_rule || g_->HasRule(s.label(v));
    too_wide = too_wide || s.NumChildren(v) > 2;
  });
  if (calls_rule) {
    // A rule's label in the fragment would be a call of that rule.
    return Status::InvalidArgument("insert fragment label names a grammar rule");
  }
  if (too_wide) {
    // A document is a binary tree (ValidateDocument).
    return Status::InvalidArgument(
        "insert fragment has a node of rank above 2");
  }
  StatusOr<NodeId> u_or = Isolate(preorder);
  if (!u_or.ok()) return u_or.status();
  NodeId u = u_or.value();
  Tree& t = g_->mutable_rhs(g_->start());

  NodeId copy = t.CopySubtreeFrom(s, s.root());
  NodeId hole = RightmostLeaf(t, copy);
  if (t.label(hole) != kNullLabel) {
    t.DetachAndFree(copy);
    return Status::InvalidArgument(
        "insert fragment's rightmost leaf is not ⊥");
  }
  // Sizes of the copy, with the ⊥ hole still in place; the splice
  // below is repaired by one upward pass.
  ComputeDerivedFresh(copy);

  if (t.label(u) == kNullLabel) {
    // Insert into an empty position: t[u/s].
    NodeId parent = t.parent(u);
    t.ReplaceWith(u, copy);
    t.FreeSubtree(u);
    RecomputeUpward(parent);
    NoteDamage(g_->start());
    return Status::Ok();
  }
  // t[u/s'] with s' = s[rightmost ⊥ / t_u].
  NodeId after = t.next_sibling(u);
  NodeId parent = t.parent(u);
  t.Detach(u);
  if (parent == kNilNode) {
    t.SetRoot(copy);
  } else if (after != kNilNode) {
    t.InsertBefore(after, copy);
  } else {
    t.AppendChild(parent, copy);
  }
  t.ReplaceWith(hole, u);
  t.FreeSubtree(hole);
  // u kept its derived size; everything above it (through the copy's
  // spine into the old ancestors) changed.
  RecomputeUpward(t.parent(u));
  NoteDamage(g_->start());
  return Status::Ok();
}

Status BatchUpdater::Delete(int64_t preorder) {
  StatusOr<NodeId> u_or = Isolate(preorder);
  if (!u_or.ok()) return u_or.status();
  NodeId u = u_or.value();
  Tree& t = g_->mutable_rhs(g_->start());
  if (t.label(u) == kNullLabel) {
    return Status::InvalidArgument("delete target is the empty node ⊥");
  }
  if (t.NumChildren(u) != 2) {
    return Status::FailedPrecondition(
        "delete target is not a binary element node");
  }
  NodeId next_sib = t.Child(u, 2);
  NodeId parent = t.parent(u);
  t.Detach(next_sib);
  t.ReplaceWith(u, next_sib);
  CountStartCalls(t, u, -1);
  t.FreeSubtree(u);  // frees u and its first-child subtree
  RecomputeUpward(parent);
  NoteDamage(g_->start());
  // Rules stranded by the freed subtree are collected in Finish().
  return Status::Ok();
}

Status BatchUpdater::Apply(const UpdateOp& op) {
  switch (op.kind) {
    case UpdateOp::Kind::kInsert:
      return InsertBefore(op.preorder, op.fragment);
    case UpdateOp::Kind::kDelete:
      return Delete(op.preorder);
    case UpdateOp::Kind::kRename:
      // The label id is caller-supplied (workload generators, journal
      // replay): out-of-table ids are a user error, not an invariant
      // breach — reject, don't abort.
      if (op.label < 0 ||
          op.label >= static_cast<LabelId>(g_->labels().size())) {
        return Status::InvalidArgument(
            "rename op label id " + std::to_string(op.label) +
            " is not in the grammar's label table");
      }
      return Rename(op.preorder, g_->labels().Name(op.label));
  }
  return Status::InvalidArgument("unknown update kind");
}

int BatchUpdater::Finish() {
  if (index_ == nullptr) return CollectGarbageRules(g_);
  // Every rule's call sites: outside the start rule as the index
  // counted them (the batch edited nothing else), inside it as the
  // edits left them.
  std::vector<int32_t> refs(static_cast<size_t>(g_->labels().size()), 0);
  for (size_t l = 0; l < start_calls_.size(); ++l) refs[l] = start_calls_[l];
  for (LabelId l = 0; l < index_->num_labels(); ++l) {
    refs[static_cast<size_t>(l)] += index_->OuterRefs(l);
  }
  // Drop the index first: an owned one borrows rhs trees that garbage
  // collection may remove.
  index_ = nullptr;
  owned_.reset();
  derived_.clear();
  derived_.shrink_to_fit();
  start_calls_.clear();
  return RemoveUnreferencedRules(g_, std::move(refs));
}

StatusOr<BatchResult> ApplyWorkloadBatched(Grammar g,
                                           const std::vector<UpdateOp>& ops,
                                           const UpdateOptions& options) {
  BatchResult result;
  // The adaptive trigger compares gross batch growth against the
  // grammar size as of the last repair; refreshed at every checkpoint.
  const bool adaptive = options.growth_trigger > 0;
  int64_t base_edges = adaptive ? ComputeStats(g).edge_count : 0;
  BatchUpdater batch(&g);
  int done = 0;
  int last_checkpoint = 0;
  auto checkpoint = [&]() {
    result.rules_collected += batch.Finish();
    std::vector<LabelId> damage = batch.DamagedRules();
    batch.ResetDamage();
    GrammarRepairResult r =
        options.localized
            ? LocalizedGrammarRePair(std::move(g), damage, options.repair)
            : GrammarRePair(std::move(g), options.repair);
    result.repair_rounds += r.rounds;
    g = std::move(r.grammar);
    result.checkpoint_schedule.push_back(done);
    last_checkpoint = done;
  };
  for (const UpdateOp& op : ops) {
    Status st = batch.Apply(op);
    if (!st.ok()) return st;
    ++done;
    if (done < static_cast<int>(ops.size()) &&
        RecompressDue(options, done - last_checkpoint, batch.EdgesAdded(),
                      base_edges)) {
      checkpoint();
      base_edges = ComputeStats(g).edge_count;
    }
  }
  checkpoint();
  result.grammar = std::move(g);
  return result;
}

}  // namespace slg
