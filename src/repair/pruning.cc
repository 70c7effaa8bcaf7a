#include "src/repair/pruning.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/grammar/inliner.h"
#include "src/grammar/orders.h"

namespace slg {

long long SavValue(const Grammar& g, LabelId r, int refs) {
  const Tree& t = g.rhs(r);
  long long size = t.LiveCount() - 1;  // edges
  long long rank = g.labels().Rank(r);
  return static_cast<long long>(refs) * (size - rank) - size;
}

namespace {

// One call of a rule: the rule whose body holds it and the call node.
struct CallSite {
  LabelId host;
  NodeId node;
};

bool ByHost(const CallSite& a, const CallSite& b) { return a.host < b.host; }

// The calls of one rule. Within a host, `sites` lists the host's calls
// in preorder unless the host is in `unordered`.
struct Calls {
  std::vector<CallSite> sites;
  std::vector<LabelId> unordered;
};

void MarkUnordered(Calls* c, LabelId host) {
  if (std::find(c->unordered.begin(), c->unordered.end(), host) ==
      c->unordered.end()) {
    c->unordered.push_back(host);
  }
}

// Drops the calls that live in `host`'s body.
void EraseHost(Calls* c, LabelId host) {
  c->sites.erase(std::remove_if(c->sites.begin(), c->sites.end(),
                                [host](const CallSite& s) {
                                  return s.host == host;
                                }),
                 c->sites.end());
  c->unordered.erase(
      std::remove(c->unordered.begin(), c->unordered.end(), host),
      c->unordered.end());
}

// The pruner keeps a call-site book: for every rule, the (host, node)
// of each of its calls, built by one walk of the grammar and kept
// current across removals (an inline's copied calls are appended, a
// removed rule's own calls dropped). A rule's reference count is the
// length of its list, and inlining it away visits its call sites
// directly, so a removal costs the rule's body and its call sites, not
// a walk of every host — the start rule above all.
//
// Inlining order is fixed: hosts ascending, and within a host the call
// sites in preorder, since that order decides which freed NodeIds the
// copies reuse. Copied calls appended to a list that held none in that
// host keep it in preorder. When a host's list may have lost preorder
// (it already held calls there, or the victim had several sites in the
// host, whose copies can nest through the arguments), the host is
// marked unordered, and is walked once to re-read the list before the
// next inline with more than one site in it.
class Pruner {
 public:
  explicit Pruner(Grammar* g) : g_(g), calls_(g->labels().size()) {
    g_->ForEachRule([&](LabelId lhs, const Tree& rhs) {
      rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
        LabelId l = rhs.label(v);
        if (g_->IsNonterminal(l)) CallsOf(l).sites.push_back({lhs, v});
      });
    });
  }

  PruneStats Run() {
    // Phase 1: drop unreferenced rules, inline |ref| == 1 rules.
    bool changed = true;
    while (changed) {
      changed = false;
      for (LabelId r : g_->Nonterminals()) {
        if (r == g_->start() || !g_->HasRule(r)) continue;
        int rc = Refs(r);
        if (rc == 0) {
          DropRule(r);
          changed = true;
        } else if (rc == 1) {
          InlineAway(r);
          changed = true;
        }
      }
    }

    // Phase 2: anti-SL sweep over sav values; callees first, so caller
    // sizes reflect earlier inlinings when their turn comes. Inlining
    // can push other rules to |ref| <= 1, handled by a final phase-1
    // style sweep.
    for (LabelId r : AntiSlOrder(*g_)) {
      if (r == g_->start() || !g_->HasRule(r)) continue;
      int rc = Refs(r);
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
        int rc = Refs(r);
        if (rc == 0) {
          DropRule(r);
          again = true;
        } else if (rc == 1 || SavValue(*g_, r, rc) < 0) {
          InlineAway(r);
          again = true;
        }
      }
    }
    return stats_;
  }

 private:
  Calls& CallsOf(LabelId r) { return calls_[static_cast<size_t>(r)]; }
  int Refs(LabelId r) const {
    return static_cast<int>(calls_[static_cast<size_t>(r)].sites.size());
  }

  // The distinct rules `body` calls.
  std::vector<LabelId> Callees(const Tree& body) const {
    std::vector<LabelId> out;
    body.VisitPreorder(body.root(), [&](NodeId v) {
      LabelId l = body.label(v);
      if (g_->IsNonterminal(l)) out.push_back(l);
    });
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  void DropRule(LabelId r) {
    for (LabelId callee : Callees(g_->rhs(r))) EraseHost(&CallsOf(callee), r);
    g_->RemoveRule(r);
  }

  void InlineAway(LabelId r) {
    ++stats_.inlines;
    Calls victim = std::exchange(CallsOf(r), Calls());
    std::vector<CallSite>& sites = victim.sites;
    std::stable_sort(sites.begin(), sites.end(), ByHost);
    // Host runs [begin, end) of `sites`.
    std::vector<std::pair<size_t, size_t>> runs;
    for (size_t i = 0; i < sites.size();) {
      size_t j = i;
      while (j < sites.size() && sites[j].host == sites[i].host) ++j;
      runs.emplace_back(i, j);
      i = j;
    }

    // Move the body out: the copies are made from it while the hosts
    // change. Its own calls leave the book with the rule; each callee's
    // list gains copies in every host, out of preorder where it already
    // held calls there or the host receives several copies.
    Tree body = std::move(g_->mutable_rhs(r));
    g_->RemoveRule(r);
    for (LabelId callee : Callees(body)) {
      Calls& c = CallsOf(callee);
      EraseHost(&c, r);
      for (const CallSite& s : c.sites) {
        if (std::binary_search(sites.begin(), sites.end(), s, ByHost)) {
          MarkUnordered(&c, s.host);
        }
      }
      for (auto [b, e] : runs) {
        if (e - b > 1) MarkUnordered(&c, sites[b].host);
      }
    }

    std::vector<NodeId> copied;
    for (auto [b, e] : runs) {
      const LabelId h = sites[b].host;
      if (e - b > 1 &&
          std::find(victim.unordered.begin(), victim.unordered.end(), h) !=
              victim.unordered.end()) {
        ReReadHost(r, h, sites.begin() + static_cast<ptrdiff_t>(b),
                   sites.begin() + static_cast<ptrdiff_t>(e));
      }
      Tree& host = g_->mutable_rhs(h);
      for (size_t i = b; i < e; ++i) {
        copied.clear();
        InlineCall(*g_, &host, sites[i].node, body, &copied);
        for (NodeId n : copied) CallsOf(host.label(n)).sites.push_back({h, n});
      }
    }
  }

  // Rewrites the sites [first, last) — every call of `r` in `host` —
  // in the host's preorder.
  void ReReadHost(LabelId r, LabelId host, std::vector<CallSite>::iterator first,
                  std::vector<CallSite>::iterator last) {
    ++stats_.host_walks;
    const Tree& t = g_->rhs(host);
    auto out = first;
    t.VisitPreorder(t.root(), [&](NodeId v) {
      if (t.label(v) != r) return;
      SLG_CHECK(out != last);
      out->node = v;
      ++out;
    });
    SLG_CHECK_MSG(out == last, "call-site book lost a call");
  }

  Grammar* g_;
  std::vector<Calls> calls_;  // by callee LabelId
  PruneStats stats_;
};

}  // namespace

PruneStats Prune(Grammar* g) { return Pruner(g).Run(); }

}  // namespace slg
