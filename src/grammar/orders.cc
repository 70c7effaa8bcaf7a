#include "src/grammar/orders.h"

#include <algorithm>
#include <cstddef>

namespace slg {

namespace {

// Kahn-style topological sort over the "calls" relation. Returns true
// on success (acyclic); `order` receives callees-first order. All
// tables are flat, indexed by LabelId or by position in rule-creation
// order.
bool TopoSort(const Grammar& g, std::vector<LabelId>* order) {
  std::vector<LabelId> rules = g.Nonterminals();
  const size_t n = static_cast<size_t>(g.labels().size());
  // Distinct callees of rules[i], sorted, at callees[callee_begin[i] ..
  // callee_begin[i + 1]).
  std::vector<size_t> callee_begin(rules.size() + 1, 0);
  std::vector<LabelId> callees;
  for (size_t i = 0; i < rules.size(); ++i) {
    const Tree& rhs = g.rhs(rules[i]);
    size_t from = callees.size();
    rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
      LabelId l = rhs.label(v);
      if (g.IsNonterminal(l)) callees.push_back(l);
    });
    std::sort(callees.begin() + static_cast<std::ptrdiff_t>(from),
              callees.end());
    callees.erase(std::unique(callees.begin() +
                                  static_cast<std::ptrdiff_t>(from),
                              callees.end()),
                  callees.end());
    callee_begin[i + 1] = callees.size();
  }
  // pending[R] = number of callees of R not yet emitted; callers of Q
  // at callers[caller_begin[Q] .. caller_begin[Q + 1]), in
  // rule-creation order.
  std::vector<int32_t> pending(n, 0);
  std::vector<size_t> caller_begin(n + 1, 0);
  for (size_t i = 0; i < rules.size(); ++i) {
    pending[static_cast<size_t>(rules[i])] =
        static_cast<int32_t>(callee_begin[i + 1] - callee_begin[i]);
    for (size_t k = callee_begin[i]; k < callee_begin[i + 1]; ++k) {
      ++caller_begin[static_cast<size_t>(callees[k]) + 1];
    }
  }
  for (size_t l = 0; l < n; ++l) caller_begin[l + 1] += caller_begin[l];
  std::vector<size_t> fill(caller_begin.begin(), caller_begin.end() - 1);
  std::vector<LabelId> callers(callees.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    for (size_t k = callee_begin[i]; k < callee_begin[i + 1]; ++k) {
      callers[fill[static_cast<size_t>(callees[k])]++] = rules[i];
    }
  }
  // Ready queue kept in deterministic (creation) order.
  std::vector<LabelId> ready;
  for (LabelId r : rules) {
    if (pending[static_cast<size_t>(r)] == 0) ready.push_back(r);
  }
  order->clear();
  order->reserve(rules.size());
  for (size_t i = 0; i < ready.size(); ++i) {
    LabelId q = ready[i];
    order->push_back(q);
    for (size_t k = caller_begin[static_cast<size_t>(q)];
         k < caller_begin[static_cast<size_t>(q) + 1]; ++k) {
      LabelId r = callers[k];
      if (--pending[static_cast<size_t>(r)] == 0) ready.push_back(r);
    }
  }
  return order->size() == rules.size();
}

}  // namespace

std::unordered_map<LabelId, std::vector<RuleNode>> ComputeRefs(
    const Grammar& g) {
  std::unordered_map<LabelId, std::vector<RuleNode>> refs;
  g.ForEachRule([&](LabelId lhs, const Tree& rhs) {
    rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
      LabelId l = rhs.label(v);
      if (g.IsNonterminal(l)) refs[l].push_back(RuleNode{lhs, v});
    });
  });
  return refs;
}

std::unordered_map<LabelId, int> ComputeRefCounts(const Grammar& g) {
  std::unordered_map<LabelId, int> counts;
  for (LabelId r : g.Nonterminals()) counts[r] = 0;
  g.ForEachRule([&](LabelId, const Tree& rhs) {
    rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
      LabelId l = rhs.label(v);
      if (g.IsNonterminal(l)) ++counts[l];
    });
  });
  return counts;
}

std::vector<LabelId> AntiSlOrder(const Grammar& g) {
  std::vector<LabelId> order;
  SLG_CHECK_MSG(TopoSort(g, &order), "grammar is recursive");
  return order;
}

std::vector<LabelId> TopDownOrder(const Grammar& g) {
  std::vector<LabelId> order = AntiSlOrder(g);
  std::reverse(order.begin(), order.end());
  return order;
}

bool IsStraightLine(const Grammar& g) {
  std::vector<LabelId> order;
  return TopoSort(g, &order);
}

}  // namespace slg
