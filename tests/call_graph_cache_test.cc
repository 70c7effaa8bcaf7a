// CallGraphCache must agree with the direct (full-scan) computations
// it replaces, both after a full build and after partial updates.

#include "src/core/call_graph_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "src/common/rng.h"
#include "src/core/tree_links.h"
#include "src/grammar/orders.h"
#include "src/grammar/text_format.h"
#include "src/grammar/inliner.h"
#include "src/grammar/usage.h"
#include "src/grammar/validate.h"
#include "src/repair/tree_repair.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_tree.h"

namespace slg {
namespace {

Grammar SampleGrammar() {
  // A compressed grammar with real sharing: repetitive log document.
  XmlTree xml;
  XmlNodeId root = xml.AddNode("log", kXmlNil);
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    XmlNodeId e = xml.AddNode("entry", root);
    xml.AddNode("ip", e);
    xml.AddNode("date", e);
    if (rng.Chance(0.3)) xml.AddNode("extra", e);
  }
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  return TreeRePair(std::move(bin), labels, {}).grammar;
}

TEST(CallGraphCacheTest, UsageMatchesDirect) {
  Grammar g = SampleGrammar();
  CallGraphCache cache;
  cache.Build(g);
  auto direct = ComputeUsage(g);
  const std::vector<uint64_t>& cached = cache.usage();
  for (const auto& [rule, u] : direct) {
    ASSERT_LT(static_cast<size_t>(rule), cached.size());
    EXPECT_EQ(cached[static_cast<size_t>(rule)], u) << g.labels().Name(rule);
  }
  // The dense helper must agree too.
  std::vector<uint64_t> dense = DenseUsage(g);
  for (const auto& [rule, u] : direct) {
    EXPECT_EQ(dense[static_cast<size_t>(rule)], u) << g.labels().Name(rule);
  }
}

TEST(CallGraphCacheTest, AntiSlIsValidTopologicalOrder) {
  Grammar g = SampleGrammar();
  CallGraphCache cache;
  cache.Build(g);
  std::vector<LabelId> order = cache.AntiSlList(g);
  EXPECT_EQ(order.size(), static_cast<size_t>(g.RuleCount()));
  // The initial order must match the Kahn BFS the pre-incremental code
  // used, so committed grammar baselines cannot drift.
  EXPECT_EQ(order, AntiSlOrder(g));
  // Every rule appears after all rules it calls.
  std::unordered_map<LabelId, size_t> pos;
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  g.ForEachRule([&](LabelId lhs, const Tree& rhs) {
    rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
      LabelId l = rhs.label(v);
      if (g.IsNonterminal(l)) {
        EXPECT_LT(pos[l], pos[lhs]);
      }
    });
  });
}

TEST(CallGraphCacheTest, InterfacesMatchDirect) {
  Grammar g = SampleGrammar();
  CallGraphCache cache;
  cache.Build(g);
  auto direct = ComputeInterfaces(g);
  for (const auto& [rule, iface] : direct) {
    EXPECT_TRUE(cache.InterfaceAt(rule) == iface) << g.labels().Name(rule);
  }
}

TEST(CallGraphCacheTest, UpdateTracksRuleChanges) {
  Grammar g = SampleGrammar();
  CallGraphCache cache;
  cache.Build(g);
  // Mutate a rule: inline one of its callees.
  LabelId victim = kNoLabel;
  g.ForEachRule([&](LabelId lhs, const Tree& rhs) {
    if (victim != kNoLabel) return;
    NodeId call = kNilNode;
    rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
      if (call == kNilNode && g.IsNonterminal(rhs.label(v))) call = v;
    });
    if (call != kNilNode) victim = lhs;
  });
  ASSERT_NE(victim, kNoLabel);
  {
    Tree& t = g.mutable_rhs(victim);
    NodeId call = kNilNode;
    t.VisitPreorder(t.root(), [&](NodeId v) {
      if (call == kNilNode && g.IsNonterminal(t.label(v))) call = v;
    });
    InlineCall(g, &t, call);
  }
  cache.Update(g, {victim}, {});
  auto direct = ComputeUsage(g);
  for (const auto& [rule, u] : direct) {
    EXPECT_EQ(cache.usage()[static_cast<size_t>(rule)], u)
        << g.labels().Name(rule);
  }
  // Every incrementally maintained structure must survive the full
  // cross-check after a partial update.
  cache.CheckInvariants(g);
}

TEST(CallGraphCacheTest, ChangeListsAreExact) {
  Grammar g = SampleGrammar();
  CallGraphCache cache;
  cache.Build(g);
  auto usage_before = ComputeUsage(g);
  // Inline the first call of some rule: its callee loses usage (and
  // every transitive callee of that callee may too).
  LabelId victim = kNoLabel;
  g.ForEachRule([&](LabelId lhs, const Tree& rhs) {
    if (victim != kNoLabel) return;
    NodeId call = kNilNode;
    rhs.VisitPreorder(rhs.root(), [&](NodeId v) {
      if (call == kNilNode && g.IsNonterminal(rhs.label(v))) call = v;
    });
    if (call != kNilNode) victim = lhs;
  });
  ASSERT_NE(victim, kNoLabel);
  {
    Tree& t = g.mutable_rhs(victim);
    NodeId call = kNilNode;
    t.VisitPreorder(t.root(), [&](NodeId v) {
      if (call == kNilNode && g.IsNonterminal(t.label(v))) call = v;
    });
    InlineCall(g, &t, call);
  }
  cache.Update(g, {victim}, {});
  auto usage_after = ComputeUsage(g);
  std::unordered_set<LabelId> reported(cache.usage_changed().begin(),
                                       cache.usage_changed().end());
  for (const auto& [rule, u] : usage_after) {
    bool moved = usage_before.at(rule) != u;
    EXPECT_EQ(reported.count(rule) > 0, moved) << g.labels().Name(rule);
  }
}

TEST(CallGraphCacheTest, CallersInvertsCallees) {
  Grammar g = SampleGrammar();
  CallGraphCache cache;
  cache.Build(g);
  auto callers = cache.Callers();
  auto refs = ComputeRefs(g);
  for (const auto& [callee, rule_nodes] : refs) {
    std::unordered_set<LabelId> expect;
    for (const RuleNode& rn : rule_nodes) expect.insert(rn.rule);
    std::unordered_set<LabelId> got(callers[callee].begin(),
                                    callers[callee].end());
    EXPECT_EQ(got, expect) << g.labels().Name(callee);
  }
}

}  // namespace
}  // namespace slg
