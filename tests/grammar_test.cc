// Tests for the SLCF grammar substrate: construction, text format,
// inlining, evaluation, usage, segment sizes, validation.

#include "src/grammar/grammar.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/grammar/inliner.h"
#include "src/grammar/orders.h"
#include "src/grammar/rule_index.h"
#include "src/grammar/stats.h"
#include "src/grammar/text_format.h"
#include "src/grammar/usage.h"
#include "src/grammar/validate.h"
#include "src/grammar/value.h"
#include "src/tree/tree_hash.h"
#include "src/tree/tree_io.h"
#include "src/xml/binary_encoding.h"

namespace slg {
namespace {

// The running example grammar of paper §II: generates the binary tree
// of Fig. 1.
Grammar PaperGrammar() {
  auto g = GrammarFromRules({
      "S -> f(A(B,B),~)",
      "B -> A(~,~)",
      "A -> a(~,a($1,$2))",
  });
  SLG_CHECK(g.ok());
  return g.take();
}

TEST(GrammarTest, BasicAccessors) {
  Grammar g = PaperGrammar();
  EXPECT_EQ(g.RuleCount(), 3);
  LabelId s = g.labels().Find("S");
  LabelId a = g.labels().Find("A");
  LabelId f = g.labels().Find("f");
  EXPECT_EQ(g.start(), s);
  EXPECT_TRUE(g.IsNonterminal(a));
  EXPECT_FALSE(g.IsNonterminal(f));
  EXPECT_TRUE(g.IsTerminal(f));
  EXPECT_FALSE(g.IsTerminal(g.labels().Param(1)));
  EXPECT_EQ(g.labels().Rank(a), 2);
}

TEST(GrammarTest, CloneIsDeep) {
  Grammar g = PaperGrammar();
  Grammar h = g.Clone();
  LabelId b = g.labels().Find("B");
  h.RemoveRule(b);
  EXPECT_TRUE(g.HasRule(b));
  EXPECT_FALSE(h.HasRule(b));
}

TEST(GrammarTest, CompactOwnedBodiesLeavesSharedBodiesAlone) {
  Grammar g = PaperGrammar();
  Grammar h = g.Clone();
  LabelId a = g.labels().Find("A");
  // Give h its own start body with a hole: S -> f(A(B,B),~) becomes
  // S -> f(B,~).
  Tree& s = h.mutable_rhs(h.start());
  NodeId call = s.Child(s.root(), 1);
  NodeId b = s.Child(call, 1);
  s.Detach(b);
  s.ReplaceWith(call, b);
  s.FreeSubtree(call);
  const std::string before_g = FormatGrammar(g);
  const std::string before_h = FormatGrammar(h);

  h.CompactOwnedBodies();
  EXPECT_EQ(FormatGrammar(h), before_h);
  EXPECT_EQ(FormatGrammar(g), before_g);
  EXPECT_EQ(&h.rhs(a), &g.rhs(a));  // still shared
  std::vector<NodeId> order = h.rhs(h.start()).Preorder();
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<NodeId>(i));
  }
}

TEST(TextFormatTest, RoundTrip) {
  Grammar g = PaperGrammar();
  std::string text = FormatGrammar(g);
  auto g2 = ParseGrammar(text);
  ASSERT_TRUE(g2.ok()) << g2.status().ToString();
  EXPECT_EQ(FormatGrammar(g2.value()), text);
}

TEST(TextFormatTest, RejectsBadInput) {
  EXPECT_FALSE(ParseGrammar("").ok());
  EXPECT_FALSE(ParseGrammar("S - f(a)").ok());
  EXPECT_FALSE(ParseGrammar("S -> A\nS -> B").ok());      // duplicate
  EXPECT_FALSE(ParseGrammar("S -> A($1)").ok());          // start has param
}

TEST(ValueTest, PaperExampleDerivesFigure1) {
  Grammar g = PaperGrammar();
  auto v = Value(g);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(ToTerm(v.value(), g.labels()),
            "f(a(~,a(a(~,a(~,~)),a(~,a(~,~)))),~)");
}

TEST(ValueTest, BudgetEnforced) {
  // a^1024 via doubling chain (paper §III-A style).
  std::vector<std::string> rules = {"S -> g(A1(~),~)"};
  for (int i = 1; i < 10; ++i) {
    rules.push_back("A" + std::to_string(i) + " -> A" + std::to_string(i + 1) +
                    "(A" + std::to_string(i + 1) + "($1))");
  }
  rules.push_back("A10 -> a($1)");
  auto g = GrammarFromRules(rules);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  auto small = Value(g.value(), 100);
  EXPECT_FALSE(small.ok());
  EXPECT_EQ(small.status().code(), StatusCode::kOutOfRange);
  auto big = Value(g.value());
  ASSERT_TRUE(big.ok());
  // 512 a-nodes + g + ~ ... A1 derives a chain of 2^9 = 512 a's.
  EXPECT_EQ(big.value().LiveCount(), 512 + 2 + 1);  // g, chain, $-arg leaf ~
}

TEST(ValueTest, NodeCountsWithoutMaterializing) {
  Grammar g = PaperGrammar();
  auto v = Value(g);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(ValueNodeCount(g), v.value().LiveCount());
  EXPECT_EQ(ValueElementCount(g), ElementCount(v.value()));
}

TEST(InlinerTest, InlineMatchesDerivationStep) {
  Grammar g = PaperGrammar();
  // Inline B at node (S,3): S -> f(A(A(~,~),B),~)  (paper §II example).
  LabelId s = g.start();
  Tree& rhs = g.mutable_rhs(s);
  NodeId b_node = rhs.AtPreorderIndex(3);
  ASSERT_EQ(g.labels().Name(rhs.label(b_node)), "B");
  InlineCall(g, &rhs, b_node);
  EXPECT_EQ(ToTerm(rhs, g.labels()), "f(A(A(~,~),B),~)");
  ASSERT_TRUE(Validate(g).ok());
  // val unchanged.
  EXPECT_EQ(ToTerm(Value(g).value(), g.labels()),
            "f(a(~,a(a(~,a(~,~)),a(~,a(~,~)))),~)");
}

TEST(InlinerTest, InlineEveryCallThenRemoveRule) {
  // Inline B at each of its calls from its moved-out body, as the
  // pruner does, then drop its rule: val(G) is unchanged and each copy
  // reports the call of A it brought in.
  Grammar g = PaperGrammar();
  Tree before = Value(g).take();
  LabelId a = g.labels().Find("A");
  LabelId b = g.labels().Find("B");
  Tree body = std::move(g.mutable_rhs(b));
  g.RemoveRule(b);
  Tree& s = g.mutable_rhs(g.start());
  std::vector<NodeId> calls;
  s.VisitPreorder(s.root(), [&](NodeId v) {
    if (s.label(v) == b) calls.push_back(v);
  });
  ASSERT_EQ(calls.size(), 2u);
  for (NodeId call : calls) {
    std::vector<NodeId> copied;
    InlineCall(g, &s, call, body, &copied);
    ASSERT_EQ(copied.size(), 1u);
    EXPECT_EQ(s.label(copied[0]), a);
  }
  EXPECT_FALSE(g.HasRule(b));
  EXPECT_EQ(ToTerm(s, g.labels()), "f(A(A(~,~),A(~,~)),~)");
  ASSERT_TRUE(Validate(g).ok());
  EXPECT_TRUE(TreeEquals(before, Value(g).take()));
}

TEST(OrdersTest, AntiSlOrderIsCalleesFirst) {
  Grammar g = PaperGrammar();
  std::vector<LabelId> order = AntiSlOrder(g);
  ASSERT_EQ(order.size(), 3u);
  auto pos = [&](const char* name) {
    LabelId l = g.labels().Find(name);
    for (size_t i = 0; i < order.size(); ++i) {
      if (order[i] == l) return i;
    }
    return size_t{999};
  };
  EXPECT_LT(pos("A"), pos("B"));  // B calls A
  EXPECT_LT(pos("B"), pos("S"));  // S calls B
  EXPECT_LT(pos("A"), pos("S"));
  EXPECT_TRUE(IsStraightLine(g));
}

TEST(OrdersTest, RefsComputed) {
  Grammar g = PaperGrammar();
  auto refs = ComputeRefs(g);
  LabelId a = g.labels().Find("A");
  LabelId b = g.labels().Find("B");
  EXPECT_EQ(refs[a].size(), 2u);  // in S and in B
  EXPECT_EQ(refs[b].size(), 2u);  // twice in S
  EXPECT_EQ(refs[g.start()].size(), 0u);
}

TEST(UsageTest, PaperSemantics) {
  Grammar g = PaperGrammar();
  auto usage = ComputeUsage(g);
  EXPECT_EQ(usage[g.start()], 1u);
  EXPECT_EQ(usage[g.labels().Find("B")], 2u);
  // A is called once in S and once in B (B used twice): 1 + 2 = 3.
  EXPECT_EQ(usage[g.labels().Find("A")], 3u);
}

TEST(UsageTest, SaturatesOnExponentialGrammars) {
  std::vector<std::string> rules = {"S -> g(A1(~),~)"};
  const int depth = 80;
  for (int i = 1; i < depth; ++i) {
    rules.push_back("A" + std::to_string(i) + " -> A" + std::to_string(i + 1) +
                    "(A" + std::to_string(i + 1) + "($1))");
  }
  rules.push_back("A" + std::to_string(depth) + " -> a($1)");
  auto g = GrammarFromRules(rules);
  ASSERT_TRUE(g.ok());
  auto usage = ComputeUsage(g.value());
  EXPECT_EQ(usage[g.value().labels().Find("A" + std::to_string(depth))],
            kUsageCap);
}

TEST(SizesTest, PaperExample) {
  // val(A) = f(y1, g(h(a,y2), g(a,y3))) ⇒ sizes {1,3,2,0}.
  auto g = GrammarFromRules({
      "S -> f(A(x,x,x),~)",
      "A -> f($1,g(h(a,$2),g(a,$3)))",
  });
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  RuleIndex index = RuleIndex::Build(g.value());
  LabelId a = g.value().labels().Find("A");
  ASSERT_EQ(index.Rank(a), 3);
  EXPECT_EQ(index.SegSize(a, 0), 1);
  EXPECT_EQ(index.SegSize(a, 1), 3);
  EXPECT_EQ(index.SegSize(a, 2), 2);
  EXPECT_EQ(index.SegSize(a, 3), 0);
  EXPECT_EQ(index.SegTotal(a), 6);
}

TEST(SizesTest, NestedCalls) {
  Grammar g = PaperGrammar();
  RuleIndex index = RuleIndex::Build(g);
  // val(S) has 15 nodes.
  EXPECT_EQ(index.SegTotal(g.start()), 15);
  // val(A) = a(~,a(y1,y2)): segments {3, 0, 0}.
  LabelId a = g.labels().Find("A");
  EXPECT_EQ(index.SegSize(a, 0), 3);
  EXPECT_EQ(index.SegSize(a, 1), 0);
  EXPECT_EQ(index.SegSize(a, 2), 0);
}

TEST(ValidateTest, AcceptsPaperGrammar) {
  EXPECT_TRUE(Validate(PaperGrammar()).ok());
}

TEST(ValidateTest, RejectsRecursion) {
  // Construct recursion manually (text format would also accept it
  // syntactically; Validate must reject).
  Grammar g;
  LabelId s = g.labels().Intern("S", 0);
  LabelId a = g.labels().Intern("A", 0);
  LabelId b = g.labels().Intern("B", 0);
  LabelTable& lt = g.labels();
  {
    Tree t;
    NodeId r = t.NewNode(lt.Intern("f", 1));
    t.SetRoot(r);
    t.AppendChild(r, t.NewNode(a));
    g.AddRule(s, std::move(t));
  }
  {
    Tree t;
    NodeId r = t.NewNode(lt.Find("f"));
    t.SetRoot(r);
    t.AppendChild(r, t.NewNode(b));
    g.AddRule(a, std::move(t));
  }
  {
    Tree t;
    NodeId r = t.NewNode(lt.Find("f"));
    t.SetRoot(r);
    t.AppendChild(r, t.NewNode(a));
    g.AddRule(b, std::move(t));
  }
  g.set_start(s);
  Status st = Validate(g);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(ValidateTest, RejectsParamOrderViolation) {
  auto g = GrammarFromRules({
      "S -> f(A(a,b),~)",
      "A -> g($2,$1)",
  });
  // Param order violated: ParseGrammar validates and must fail.
  EXPECT_FALSE(g.ok());
}

TEST(ValidateTest, RejectsWrongArity) {
  auto bad = ParseGrammar("S -> f(A,~)\nA -> f(a)");
  EXPECT_FALSE(bad.ok());  // f used with ranks 2 and 1
}

TEST(StatsTest, CountsPaperGrammar) {
  Grammar g = PaperGrammar();
  GrammarStats s = ComputeStats(g);
  EXPECT_EQ(s.rule_count, 3);
  // S: 5 nodes, B: 3 nodes, A: 6 nodes.
  EXPECT_EQ(s.node_count, 13);
  EXPECT_EQ(s.edge_count, 10);
  EXPECT_EQ(s.param_node_count, 2);
  EXPECT_EQ(s.nonterminal_node_count, 4);
  // non-null edges: S: A,B,B (3); B: none; A: a,$1,$2 (3) → 6.
  EXPECT_EQ(s.non_null_edge_count, 6);
}

}  // namespace
}  // namespace slg
