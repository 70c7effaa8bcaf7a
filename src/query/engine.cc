#include "src/query/engine.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/grammar/value.h"

namespace slg {

namespace {

// What one (rule, ctx) evaluation learned. Pointers into the memo
// stay valid across later insertions (node-based map), which the
// evaluation and descent passes rely on.
struct MemoEntry {
  int64_t count = 0;              // matches in the rule's material
  std::vector<uint64_t> exits;    // context at parameter j+1's position
  std::vector<int64_t> matches;   // per body NodeId; empty unless needed
};

class Evaluator {
 public:
  Evaluator(const Grammar& g, const RuleIndex& index, const QueryPlan& plan,
            const std::vector<LabelId>& bound, bool need_matches)
      : g_(g),
        index_(index),
        plan_(plan),
        bound_(bound),
        need_matches_(need_matches),
        memo_(static_cast<size_t>(index.num_labels())) {}

  const QueryStats& stats() const { return stats_; }

  // Memoizes (rule, ctx) and everything it transitively needs, then
  // returns the entry. Iterative: a stack of resumable frames, one per
  // (rule, ctx) in progress. A frame's forward pass stops at a call
  // whose (callee, ctx) is not memoized yet and pushes the callee's
  // frame; once that finishes, the caller resumes at the same call,
  // which now hits the memo, so each body is walked once per context.
  // The rule DAG is acyclic, so no pair is ever on the stack twice.
  const MemoEntry* Ensure(LabelId rule, uint64_t ctx) {
    if (const MemoEntry* e = Lookup(rule, ctx)) return e;
    size_t depth = 0;
    Open(depth++, rule, ctx);
    while (depth > 0) {
      Job missing;
      if (Forward(&frames_[depth - 1], &missing)) {
        Finish(frames_[--depth]);
      } else {
        Open(depth++, missing.rule, missing.ctx);
      }
    }
    return Lookup(rule, ctx);
  }

  // Self-reproducing dead context: only descendant states, none of
  // whose pending predicates can fire anywhere in the rule's material
  // (per the index's label filter — no false negatives). Such a
  // call contributes zero matches and hands every argument the same
  // context, so it needs no memo entry at all.
  bool CanPrune(LabelId rule, uint64_t ctx) const {
    if (!plan_.OnlyDescendantStates(ctx)) return false;
    for (uint64_t bits = ctx; bits != 0; bits &= bits - 1) {
      size_t i =
          static_cast<size_t>(plan_.StateStep(__builtin_ctzll(bits)));
      const QueryStep& step = plan_.query().steps[i];
      if (step.wildcard) return false;
      if (bound_[i] != kNoLabel && index_.MayContain(rule, bound_[i])) {
        return false;
      }
    }
    return true;
  }

  // Root-to-match descent steered by memoized match counts — the
  // FindLabel walk with the occurrence index replaced by per-context
  // match counts. Only valid after Ensure() ran with need_matches and
  // reported at least k matches. Returns the 1-based binary preorder
  // position of the k-th match.
  int64_t Descend(uint64_t q0, int64_t k) {
    std::vector<DFrame> frames;
    frames.push_back(DFrame{g_.start(), kNilNode, Lookup(g_.start(), q0),
                            q0, {}, {}});
    LabelId rule = g_.start();
    NodeId v = index_.RhsRoot(rule);
    uint64_t cs = q0;  // context flowing at (rule, v)
    int64_t pos = 0;   // nodes strictly before the current subtree
    for (;;) {
      ResolveToTerminal(
          index_, rule, v,
          [&]() -> std::pair<LabelId, NodeId> {
            // Parameter: resume at the call's argument, in the context
            // Forward gave it. For a memoized callee cs already equals
            // it — the context at the parameter's position inside the
            // callee is, by construction of the exits, the argument's
            // context. A pruned or empty call handed every argument its
            // own context, which the walk through the callee need not
            // reproduce (a terminal's third child gets none).
            if (frames.back().entry == nullptr) cs = frames.back().flow;
            NodeId call = frames.back().call;
            frames.pop_back();
            return {frames.back().rule, call};
          },
          [&](LabelId callee) {
            const DFrame& f = frames.back();
            const Tree& t = index_.Rhs(rule);
            DFrame nf;
            nf.rule = callee;
            nf.call = v;
            nf.entry = nullptr;
            nf.flow = cs;
            if (cs != 0 && !CanPrune(callee, cs)) {
              nf.entry = Lookup(callee, cs);
              SLG_CHECK_MSG(nf.entry != nullptr,
                            "descent reached an unevaluated context");
            }
            size_t rank = static_cast<size_t>(index_.Rank(callee));
            nf.size_prefix.resize(rank + 1);
            nf.match_prefix.resize(rank + 1);
            nf.size_prefix[0] = 0;
            nf.match_prefix[0] = 0;
            size_t j = 0;
            for (NodeId c = t.first_child(v); c != kNilNode;
                 c = t.next_sibling(c)) {
              nf.size_prefix[j + 1] =
                  SizeSatAdd(nf.size_prefix[j],
                             index_.DerivedIn(f.rule, c, f.size_prefix.data()));
              nf.match_prefix[j + 1] =
                  SizeSatAdd(nf.match_prefix[j], MatchIn(f, c));
              ++j;
            }
            frames.push_back(std::move(nf));
          });
      const DFrame& f = frames.back();
      const Tree& t = index_.Rhs(rule);
      LabelId l = t.label(v);
      uint64_t own = plan_.Own(cs, l, bound_);
      if ((own & plan_.AcceptBit()) != 0) {
        if (k == 1) return SizeSatAdd(pos, 1);
        --k;
      }
      pos = SizeSatAdd(pos, 1);
      uint64_t ctx1 = own & ~plan_.AcceptBit();
      uint64_t ctx2 = plan_.Next(cs, l, bound_);
      NodeId next = kNilNode;
      int ci = 0;
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        ++ci;
        int64_t mc = MatchIn(f, c);
        if (k <= mc) {
          next = c;
          cs = ci == 1 ? ctx1 : ci == 2 ? ctx2 : 0;
          break;
        }
        k -= mc;
        pos = SizeSatAdd(pos,
                         index_.DerivedIn(f.rule, c, f.size_prefix.data()));
      }
      SLG_CHECK_MSG(next != kNilNode, "match counts inconsistent in descent");
      v = next;
    }
  }

 private:
  struct Job {
    LabelId rule = kNoLabel;
    uint64_t ctx = 0;
  };

  // One (rule, ctx) evaluation in progress: the body in preorder, the
  // position of the forward pass in it, and the per-NodeId contexts and
  // material contributions computed so far.
  struct Frame {
    LabelId rule = kNoLabel;
    uint64_t q = 0;
    std::vector<NodeId> order;
    size_t next = 0;
    std::vector<uint64_t> ctx;
    std::vector<int64_t> contrib;
    int64_t hits = 0;  // call sites answered from the memo
  };

  // A descent frame: the rule we are inside, the call node in the
  // enclosing body, this rule's memo entry under the flow context
  // (null for pruned or empty contexts — their material match counts
  // are zero), the flow context at the call, and prefix sums over
  // argument sizes / argument match counts.
  struct DFrame {
    LabelId rule;
    NodeId call;
    const MemoEntry* entry;
    uint64_t flow;
    std::vector<int64_t> size_prefix;
    std::vector<int64_t> match_prefix;
  };

  const MemoEntry* Lookup(LabelId rule, uint64_t ctx) const {
    const auto& m = memo_[static_cast<size_t>(rule)];
    auto it = m.find(ctx);
    return it == m.end() ? nullptr : &it->second;
  }

  // Matches in the derived subtree of body node c within frame f:
  // memoized material counts plus the argument counts of the
  // parameter interval under c.
  int64_t MatchIn(const DFrame& f, NodeId c) const {
    static const std::vector<int64_t> kNoMatches;
    const std::vector<int64_t>& m =
        f.entry != nullptr ? f.entry->matches : kNoMatches;
    return index_.InContext(f.rule, c, m, f.match_prefix.data());
  }

  // Starts the evaluation of rule r under context q in frames_[slot],
  // reusing the slot's arrays from earlier frames at that depth.
  void Open(size_t slot, LabelId r, uint64_t q) {
    if (slot == frames_.size()) frames_.emplace_back();
    Frame& f = frames_[slot];
    f.rule = r;
    f.q = q;
    f.next = 0;
    f.hits = 0;
    const Tree& t = index_.Rhs(r);
    f.order.clear();
    NodeId max_id = 0;
    t.VisitPreorder(index_.RhsRoot(r), [&](NodeId v) {
      f.order.push_back(v);
      max_id = std::max(max_id, v);
    });
    f.ctx.assign(static_cast<size_t>(max_id) + 1, 0);
    f.contrib.assign(static_cast<size_t>(max_id) + 1, 0);
    f.ctx[static_cast<size_t>(index_.RhsRoot(r))] = q;
  }

  // Continues f's forward pass: assigns each node its context and its
  // own material contribution, in preorder. Returns false, with
  // *missing set, when it reaches a call whose (callee, ctx) is neither
  // memoized nor prunable; the call's arguments depend on the callee's
  // exits, so the pass stops there and resumes at the same call.
  bool Forward(Frame* f, Job* missing) {
    const Tree& t = index_.Rhs(f->rule);
    std::vector<uint64_t>& ctx = f->ctx;
    const size_t n = f->order.size();
    const size_t begin = f->next;
    for (; f->next < n; ++f->next) {
      NodeId v = f->order[f->next];
      uint64_t u = ctx[static_cast<size_t>(v)];
      LabelId l = t.label(v);
      if (index_.ParamIndex(l) > 0) continue;
      if (index_.IsNonterminal(l)) {
        uint64_t arg_default = 0;
        if (u != 0) {
          if (CanPrune(l, u)) {
            arg_default = u;
          } else if (const MemoEntry* e = Lookup(l, u)) {
            ++f->hits;
            f->contrib[static_cast<size_t>(v)] = e->count;
            size_t j = 0;
            for (NodeId c = t.first_child(v); c != kNilNode;
                 c = t.next_sibling(c)) {
              ctx[static_cast<size_t>(c)] = e->exits[j++];
            }
            continue;
          } else {
            *missing = Job{l, u};
            break;
          }
        }
        for (NodeId c = t.first_child(v); c != kNilNode;
             c = t.next_sibling(c)) {
          ctx[static_cast<size_t>(c)] = arg_default;
        }
        continue;
      }
      // Terminal.
      uint64_t own = plan_.Own(u, l, bound_);
      if ((own & plan_.AcceptBit()) != 0) {
        f->contrib[static_cast<size_t>(v)] = 1;
      }
      NodeId c1 = t.first_child(v);
      if (c1 != kNilNode) {
        ctx[static_cast<size_t>(c1)] = own & ~plan_.AcceptBit();
        NodeId c2 = t.next_sibling(c1);
        if (c2 != kNilNode) {
          ctx[static_cast<size_t>(c2)] = plan_.Next(u, l, bound_);
          for (NodeId c = t.next_sibling(c2); c != kNilNode;
               c = t.next_sibling(c)) {
            ctx[static_cast<size_t>(c)] = 0;
          }
        }
      }
    }
    stats_.nodes_walked += static_cast<int64_t>(f->next - begin);
    return f->next == n;
  }

  // The backward pass of a completed frame: bottom-up material match
  // counts (parameters hold zero — callers add argument counts through
  // the index's parameter intervals), then the memo entry.
  void Finish(const Frame& f) {
    const Tree& t = index_.Rhs(f.rule);
    nm_.assign(f.contrib.size(), 0);
    for (auto it = f.order.rbegin(); it != f.order.rend(); ++it) {
      NodeId v = *it;
      int64_t n = f.contrib[static_cast<size_t>(v)];
      for (NodeId c = t.first_child(v); c != kNilNode; c = t.next_sibling(c)) {
        n = SizeSatAdd(n, nm_[static_cast<size_t>(c)]);
      }
      nm_[static_cast<size_t>(v)] = n;
    }
    MemoEntry e;
    e.count = nm_[static_cast<size_t>(index_.RhsRoot(f.rule))];
    int rank = index_.Rank(f.rule);
    e.exits.resize(static_cast<size_t>(rank));
    for (int j = 1; j <= rank; ++j) {
      e.exits[static_cast<size_t>(j - 1)] =
          f.ctx[static_cast<size_t>(index_.ParamNode(f.rule, j))];
    }
    if (need_matches_) e.matches = std::move(nm_);
    auto& m = memo_[static_cast<size_t>(f.rule)];
    if (m.empty()) ++stats_.rules_visited;
    m.emplace(f.q, std::move(e));
    ++stats_.memo_entries;
    stats_.memo_hits += f.hits;
  }

  const Grammar& g_;
  const RuleIndex& index_;
  const QueryPlan& plan_;
  const std::vector<LabelId>& bound_;
  bool need_matches_;
  std::vector<std::unordered_map<uint64_t, MemoEntry>> memo_;  // by rule
  std::vector<Frame> frames_;  // Ensure's stack; slots keep their arrays
  std::vector<int64_t> nm_;    // Finish's match counts, when not kept
  QueryStats stats_;
};

}  // namespace

StatusOr<QueryResult> QueryEngine::Run(std::string_view query) const {
  StatusOr<Query> q = Query::Parse(query);
  if (!q.ok()) return q.status();
  return Run(q.value());
}

StatusOr<QueryResult> QueryEngine::Run(const Query& query) const {
  StatusOr<QueryPlan> plan = QueryPlan::Compile(query);
  if (!plan.ok()) return plan.status();
  return Run(plan.value());
}

StatusOr<QueryResult> QueryEngine::Run(const QueryPlan& plan) const {
  const Query& q = plan.query();
  QueryResult res;
  res.aggregate = q.aggregate;
  const bool positional_agg =
      q.aggregate == Aggregate::kFirst || q.aggregate == Aggregate::kNth;
  const int64_t want = q.aggregate == Aggregate::kNth ? q.k : 1;
  // Bind step labels against this grammar; a name the document never
  // interned cannot match anywhere.
  std::vector<LabelId> bound(q.steps.size(), kNoLabel);
  bool impossible = false;
  for (size_t i = 0; i < q.steps.size(); ++i) {
    if (q.steps[i].wildcard) continue;
    bound[i] = g_->labels().Find(q.steps[i].label);
    if (bound[i] == kNoLabel) impossible = true;
  }
  if (impossible) {
    if (positional_agg) return Status::NotFound("query has no matches");
    return res;
  }
  Evaluator ev(*g_, *index_, plan, bound, /*need_matches=*/positional_agg);
  const MemoEntry* top = ev.Ensure(g_->start(), plan.InitialContext());
  res.count = top->count;
  res.exists = top->count > 0;
  if (positional_agg) {
    if (res.count < want) {
      res.stats = ev.stats();
      return Status::NotFound(res.count == 0
                                  ? "query has no matches"
                                  : "fewer than k query matches");
    }
    res.position = ev.Descend(plan.InitialContext(), want);
  }
  res.stats = ev.stats();
  return res;
}

}  // namespace slg
