// The walk-based pruner that preceded the call-site book, kept as the
// reference the production Prune (src/repair/pruning.cc) must match
// NodeId for NodeId. It keeps exact caller sets and, for every rule it
// inlines away, walks each caller's whole body to find the call sites,
// then inlines them in that preorder, hosts ascending. Its user is
// PruneTest (pruning_test.cc). Test-only: never linked into the
// library.

#ifndef SLG_TESTS_REFERENCE_PRUNER_H_
#define SLG_TESTS_REFERENCE_PRUNER_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/grammar/grammar.h"
#include "src/grammar/inliner.h"
#include "src/grammar/orders.h"
#include "src/repair/pruning.h"

namespace slg {

class ReferencePruner {
 public:
  explicit ReferencePruner(Grammar* g) : g_(g), refs_(ComputeRefCounts(*g)) {
    g_->ForEachRule([&](LabelId lhs, const Tree& rhs) {
      rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
        LabelId l = rhs.label(v);
        if (g_->IsNonterminal(l)) callers_[l].insert(lhs);
      });
    });
  }

  // Prunes like Prune(); returns the host bodies walked for call sites.
  int64_t Run() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (LabelId r : g_->Nonterminals()) {
        if (r == g_->start() || !g_->HasRule(r)) continue;
        int rc = refs_[r];
        if (rc == 0) {
          DropRule(r);
          changed = true;
        } else if (rc == 1) {
          InlineAway(r);
          changed = true;
        }
      }
    }
    for (LabelId r : AntiSlOrder(*g_)) {
      if (r == g_->start() || !g_->HasRule(r)) continue;
      int rc = refs_[r];
      if (rc == 0 || rc == 1 || SavValue(*g_, r, rc) < 0) {
        if (rc == 0) {
          DropRule(r);
        } else {
          InlineAway(r);
        }
      }
    }
    bool again = true;
    while (again) {
      again = false;
      for (LabelId r : g_->Nonterminals()) {
        if (r == g_->start() || !g_->HasRule(r)) continue;
        int rc = refs_[r];
        if (rc == 0) {
          DropRule(r);
          again = true;
        } else if (rc == 1 || SavValue(*g_, r, rc) < 0) {
          InlineAway(r);
          again = true;
        }
      }
    }
    return host_walks_;
  }

 private:
  std::unordered_map<LabelId, int> BodyCallees(LabelId r) {
    std::unordered_map<LabelId, int> counts;
    const Tree& t = g_->rhs(r);
    t.VisitPreorder(t.root(), [&](NodeId v) {
      LabelId l = t.label(v);
      if (g_->IsNonterminal(l)) ++counts[l];
    });
    return counts;
  }

  void DropRule(LabelId r) {
    for (auto [callee, n] : BodyCallees(r)) {
      refs_[callee] -= n;
      callers_[callee].erase(r);
    }
    g_->RemoveRule(r);
    refs_.erase(r);
    callers_.erase(r);
  }

  void InlineAway(LabelId r) {
    int rc = refs_[r];
    std::vector<LabelId> hosts(callers_[r].begin(), callers_[r].end());
    std::sort(hosts.begin(), hosts.end());
    for (auto [callee, n] : BodyCallees(r)) {
      refs_[callee] += n * (rc - 1);
      auto& cs = callers_[callee];
      cs.erase(r);
      for (LabelId h : hosts) cs.insert(h);
    }
    Tree body = std::move(g_->mutable_rhs(r));
    g_->RemoveRule(r);
    for (LabelId h : hosts) {
      if (!g_->HasRule(h)) continue;
      const Tree& scan = g_->rhs(h);
      std::vector<NodeId> calls;
      ++host_walks_;
      scan.VisitPreorder(scan.root(), [&](NodeId v) {
        if (scan.label(v) == r) calls.push_back(v);
      });
      if (calls.empty()) continue;
      Tree& host = g_->mutable_rhs(h);
      for (NodeId call : calls) InlineCall(*g_, &host, call, body);
    }
    refs_.erase(r);
    callers_.erase(r);
  }

  Grammar* g_;
  std::unordered_map<LabelId, int> refs_;
  std::unordered_map<LabelId, std::unordered_set<LabelId>> callers_;
  int64_t host_walks_ = 0;
};

}  // namespace slg

#endif  // SLG_TESTS_REFERENCE_PRUNER_H_
