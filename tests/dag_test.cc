// Tests for the minimal-DAG baseline compressor and the streaming
// grammar-to-DAG evaluator.

#include "src/dag/dag_builder.h"

#include <gtest/gtest.h>

#include "src/dag/value_dag.h"
#include "src/grammar/stats.h"
#include "src/grammar/validate.h"
#include "src/grammar/value.h"
#include "src/repair/tree_repair.h"
#include "src/tree/tree_hash.h"
#include "src/tree/tree_io.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_parser.h"

namespace slg {
namespace {

TEST(DagTest, SharesRepeatedSubtrees) {
  LabelTable labels;
  Tree t = ParseTerm("f(g(a,b),g(a,b))", &labels).take();
  Grammar g = BuildDag(t, labels);
  ASSERT_TRUE(Validate(g).ok());
  // One shared rule for g(a,b).
  EXPECT_EQ(g.RuleCount(), 2);
  Tree v = Value(g).take();
  EXPECT_TRUE(TreeEquals(t, v));
}

TEST(DagTest, ValuePreservedOnXml) {
  auto xml = ParseXml(
      "<lib><book><t/><au/></book><book><t/><au/></book>"
      "<book><t/><au/><au/></book></lib>");
  ASSERT_TRUE(xml.ok());
  LabelTable labels;
  Tree bin = EncodeBinary(xml.value(), &labels);
  Grammar g = BuildDag(bin, labels);
  ASSERT_TRUE(Validate(g).ok());
  Tree v = Value(g).take();
  EXPECT_TRUE(TreeEquals(bin, v));
  // Sharing must shrink the representation.
  EXPECT_LT(ComputeStats(g).node_count, bin.LiveCount());
}

TEST(DagTest, NoSharingOnAllDistinct) {
  LabelTable labels;
  Tree t = ParseTerm("f(g(a,b),h(c,d))", &labels).take();
  Grammar g = BuildDag(t, labels);
  EXPECT_EQ(g.RuleCount(), 1);  // nothing shared
  EXPECT_TRUE(TreeEquals(t, Value(g).take()));
}

TEST(DagTest, MinSubtreeSizeRespected) {
  LabelTable labels;
  Tree t = ParseTerm("f(a,a,a,a)", &labels).take();
  DagOptions opts;
  opts.min_subtree_size = 2;
  Grammar g = BuildDag(t, labels, opts);
  EXPECT_EQ(g.RuleCount(), 1);  // leaves are never shared
}

TEST(DagTest, DistinctSubtreeCount) {
  LabelTable labels;
  Tree t = ParseTerm("f(g(a,b),g(a,b))", &labels).take();
  // Distinct: a, b, g(a,b), f(...) → 4.
  EXPECT_EQ(DistinctSubtreeCount(t), 4);
  Tree t2 = ParseTerm("a", &labels).take();
  EXPECT_EQ(DistinctSubtreeCount(t2), 1);
}

TEST(DagTest, LeafSharingCountedButNeverEmitted) {
  // DistinctSubtreeCount is the classic pointer-DAG node count and
  // shares every duplicate including leaves; BuildDag thresholds
  // sharing at min_subtree_size (default 2: a leaf rule costs more
  // than it saves). The two intentionally disagree — see
  // dag_builder.h — and relate by RuleCount <= DistinctSubtreeCount+1.
  LabelTable labels;
  Tree t = ParseTerm("f(a,a,a,a)", &labels).take();
  EXPECT_EQ(DistinctSubtreeCount(t), 2);  // a and f(a,a,a,a)
  Grammar g = BuildDag(t, labels);
  EXPECT_EQ(g.RuleCount(), 1);  // the leaf `a` is counted, not shared

  // With the threshold dropped to 1 the leaf does become a rule.
  DagOptions share_leaves;
  share_leaves.min_subtree_size = 1;
  Grammar g1 = BuildDag(t, labels, share_leaves);
  EXPECT_EQ(g1.RuleCount(), 2);
  EXPECT_TRUE(TreeEquals(t, Value(g1).take()));

  // The documented invariant, on a few shapes.
  for (const char* term :
       {"f(a,a,a,a)", "f(g(a,b),g(a,b))", "f(h(g(a,a)),h(g(a,a)),g(a,a))",
        "a"}) {
    LabelTable lt;
    Tree u = ParseTerm(term, &lt).take();
    Grammar d = BuildDag(u, lt);
    EXPECT_LE(d.RuleCount(), DistinctSubtreeCount(u) + 1) << term;
  }
}

TEST(DagTest, EvaluatorPoolMatchesDistinctSubtreeCount) {
  // The streaming evaluator's reachable sub-DAG is exactly the classic
  // minimal DAG of the derived tree — checked against the direct
  // tree-side count, both on the trivial grammar and on a compressed
  // one deriving the same document.
  auto xml = ParseXml(
      "<lib><book><t/><au/></book><book><t/><au/></book>"
      "<book><t/><au/><au/></book><misc><t/></misc></lib>");
  ASSERT_TRUE(xml.ok());
  LabelTable labels;
  Tree bin = EncodeBinary(xml.value(), &labels);
  int64_t distinct = DistinctSubtreeCount(bin);

  auto check = [&](const Grammar& g) {
    DagEvaluator eval;
    auto root = eval.Eval(g);
    ASSERT_TRUE(root.ok());
    // Same pool size too: evaluation interned nothing unreachable.
    EXPECT_EQ(eval.pool().size(), distinct);
    auto forest = DagToForest(eval.pool(), root.value(), g.labels());
    ASSERT_TRUE(forest.ok());
    EXPECT_EQ(forest.value().reachable_nodes, distinct);
    Tree out;
    auto unfolded = eval.pool().Unfold(root.value(), &out, bin.LiveCount());
    ASSERT_TRUE(unfolded.ok());
    out.SetRoot(unfolded.value());
    EXPECT_TRUE(TreeEquals(out, bin));
  };
  check(Grammar::ForTree(Tree(bin), labels));
  check(TreeRePair(Tree(bin), labels, {}).grammar);
}

TEST(DagTest, PoolTreeSizeAndUnfold) {
  LabelTable labels;
  Tree t = ParseTerm("f(g(a,b),g(a,b))", &labels).take();
  DagEvaluator eval;
  auto root = eval.Eval(Grammar::ForTree(Tree(t), labels));
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(eval.pool().TreeSize(root.value()), t.LiveCount());

  Tree out;
  auto unfolded = eval.pool().Unfold(root.value(), &out, 100);
  ASSERT_TRUE(unfolded.ok());
  out.SetRoot(unfolded.value());
  EXPECT_TRUE(TreeEquals(out, t));
  Tree too_small;
  EXPECT_FALSE(eval.pool().Unfold(root.value(), &too_small, 3).ok());
}

TEST(DagTest, NestedSharing) {
  LabelTable labels;
  // g(a,a) shared; h(g(a,a)) shared.
  Tree t =
      ParseTerm("f(h(g(a,a)),h(g(a,a)),g(a,a))", &labels).take();
  Grammar g = BuildDag(t, labels);
  ASSERT_TRUE(Validate(g).ok());
  EXPECT_TRUE(TreeEquals(t, Value(g).take()));
  EXPECT_EQ(g.RuleCount(), 3);  // S, h(g..), g(a,a)
}

}  // namespace
}  // namespace slg
