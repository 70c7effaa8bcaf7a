// Unit tests for the arena tree (src/tree).

#include "src/tree/tree.h"

#include <gtest/gtest.h>

#include "src/tree/label_table.h"
#include "src/tree/tree_hash.h"
#include "src/tree/tree_io.h"

namespace slg {
namespace {

TEST(LabelTableTest, InternAndFind) {
  LabelTable t;
  LabelId a = t.Intern("a", 2);
  EXPECT_EQ(t.Find("a"), a);
  EXPECT_EQ(t.Intern("a", 2), a);
  EXPECT_EQ(t.Rank(a), 2);
  EXPECT_EQ(t.Name(a), "a");
  EXPECT_EQ(t.Find("zzz"), kNoLabel);
}

TEST(LabelTableTest, NullLabelIsReserved) {
  LabelTable t;
  EXPECT_EQ(t.Find("~"), kNullLabel);
  EXPECT_EQ(t.Rank(kNullLabel), 0);
}

TEST(LabelTableTest, Params) {
  LabelTable t;
  LabelId y2 = t.Param(2);
  LabelId y1 = t.Param(1);
  EXPECT_EQ(t.ParamIndex(y1), 1);
  EXPECT_EQ(t.ParamIndex(y2), 2);
  EXPECT_TRUE(t.IsParam(y1));
  EXPECT_FALSE(t.IsParam(kNullLabel));
  EXPECT_EQ(t.Param(2), y2);
  EXPECT_EQ(t.Name(y2), "$2");
}

TEST(LabelTableTest, FreshAvoidsCollisions) {
  LabelTable t;
  t.Intern("X0", 0);
  LabelId f = t.Fresh("X", 1);
  EXPECT_NE(t.Name(f), "X0");
  EXPECT_EQ(t.Rank(f), 1);
  LabelId g = t.Fresh("X", 2);
  EXPECT_NE(f, g);
}

class TreeTest : public ::testing::Test {
 protected:
  LabelTable labels_;
};

TEST_F(TreeTest, BuildAndNavigate) {
  Tree t;
  LabelId f = labels_.Intern("f", 2);
  LabelId a = labels_.Intern("a", 0);
  NodeId root = t.NewNode(f);
  t.SetRoot(root);
  NodeId c1 = t.NewNode(a);
  NodeId c2 = t.NewNode(a);
  t.AppendChild(root, c1);
  t.AppendChild(root, c2);

  EXPECT_EQ(t.root(), root);
  EXPECT_EQ(t.Child(root, 1), c1);
  EXPECT_EQ(t.Child(root, 2), c2);
  EXPECT_EQ(t.ChildIndex(c1), 1);
  EXPECT_EQ(t.ChildIndex(c2), 2);
  EXPECT_EQ(t.NumChildren(root), 2);
  EXPECT_EQ(t.parent(c1), root);
  EXPECT_EQ(t.LiveCount(), 3);
  EXPECT_EQ(t.SubtreeSize(root), 3);
  EXPECT_TRUE(t.CheckConsistency());
}

TEST_F(TreeTest, InsertBefore) {
  Tree t;
  LabelId f = labels_.Intern("f", 3);
  LabelId a = labels_.Intern("a", 0);
  NodeId root = t.NewNode(f);
  t.SetRoot(root);
  NodeId c1 = t.NewNode(a);
  NodeId c3 = t.NewNode(a);
  t.AppendChild(root, c1);
  t.AppendChild(root, c3);
  NodeId c2 = t.NewNode(a);
  t.InsertBefore(c3, c2);
  EXPECT_EQ(t.Child(root, 2), c2);
  EXPECT_EQ(t.Child(root, 3), c3);
  NodeId c0 = t.NewNode(a);
  t.InsertBefore(c1, c0);
  EXPECT_EQ(t.Child(root, 1), c0);
  EXPECT_TRUE(t.CheckConsistency());
}

TEST_F(TreeTest, DetachAndReplace) {
  LabelTable labels;
  StatusOr<Tree> parsed = ParseTerm("f(g(a,b),c)", &labels);
  ASSERT_TRUE(parsed.ok());
  Tree t = parsed.take();
  NodeId g = t.Child(t.root(), 1);
  NodeId c = t.Child(t.root(), 2);

  // Replace g's subtree with c... requires detaching c first.
  t.Detach(c);
  t.ReplaceWith(g, c);
  EXPECT_EQ(ToTerm(t, labels), "f(c)");
  EXPECT_EQ(t.parent(g), kNilNode);
  t.FreeSubtree(g);
  EXPECT_EQ(t.LiveCount(), 2);
  EXPECT_TRUE(t.CheckConsistency());
}

TEST_F(TreeTest, ReplaceRoot) {
  LabelTable labels;
  Tree t = ParseTerm("f(a,b)", &labels).take();
  NodeId a = t.Child(t.root(), 1);
  NodeId old_root = t.root();
  t.Detach(a);
  t.ReplaceWith(old_root, a);
  EXPECT_EQ(t.root(), a);
  t.FreeSubtree(old_root);
  EXPECT_EQ(ToTerm(t, labels), "a");
}

TEST_F(TreeTest, FreeListRecyclesIds) {
  Tree t;
  LabelId a = labels_.Intern("a", 0);
  NodeId v = t.NewNode(a);
  t.SetRoot(v);
  NodeId w = t.NewNode(a);
  t.FreeSubtree(w);
  NodeId w2 = t.NewNode(a);
  EXPECT_EQ(w, w2);  // recycled
  EXPECT_EQ(t.LiveCount(), 2);
}

TEST_F(TreeTest, CopySubtreeFromPreservesStructure) {
  LabelTable labels;
  Tree src = ParseTerm("f(g(a,b),h(c))", &labels).take();
  Tree dst;
  NodeId copy = dst.CopySubtreeFrom(src, src.root());
  dst.SetRoot(copy);
  EXPECT_EQ(ToTerm(dst, labels), "f(g(a,b),h(c))");
  EXPECT_TRUE(TreeEquals(src, dst));
}

TEST_F(TreeTest, CompactRenumbersInPreorderAndDropsHoles) {
  LabelTable labels;
  Tree t = ParseTerm("f(g(a,b),h(c,d))", &labels).take();
  // Free g's subtree and put a new node in h's place: the arena keeps
  // holes, and the recycled slot sits out of preorder.
  NodeId g = t.Child(t.root(), 1);
  t.DetachAndFree(g);
  NodeId e = t.NewNode(labels.Intern("e", 0));
  t.InsertBefore(t.Child(t.root(), 1), e);
  const std::string term = ToTerm(t, labels);
  ASSERT_EQ(term, "f(e,h(c,d))");

  t.Compact();
  EXPECT_EQ(ToTerm(t, labels), term);
  EXPECT_EQ(t.LiveCount(), 5);
  std::vector<NodeId> order = t.Preorder();
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<NodeId>(i));
  }
  EXPECT_TRUE(t.CheckConsistency());
  // No free slots are left to recycle.
  EXPECT_EQ(t.NewNode(labels.Intern("a", 0)), 5);
}

TEST_F(TreeTest, PreorderAndIndexing) {
  LabelTable labels;
  Tree t = ParseTerm("f(g(a,b),c)", &labels).take();
  std::vector<NodeId> order = t.Preorder();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(ToTerm(t, labels, order[0]), "f(g(a,b),c)");
  EXPECT_EQ(ToTerm(t, labels, order[1]), "g(a,b)");
  EXPECT_EQ(ToTerm(t, labels, order[2]), "a");
  EXPECT_EQ(ToTerm(t, labels, order[3]), "b");
  EXPECT_EQ(ToTerm(t, labels, order[4]), "c");
  for (int n = 1; n <= 5; ++n) {
    EXPECT_EQ(t.PreorderIndexOf(order[static_cast<size_t>(n - 1)]), n);
    EXPECT_EQ(t.AtPreorderIndex(n), order[static_cast<size_t>(n - 1)]);
  }
  EXPECT_EQ(t.AtPreorderIndex(6), kNilNode);
}

TEST(TreeIoTest, ParseErrors) {
  LabelTable labels;
  EXPECT_FALSE(ParseTerm("", &labels).ok());
  EXPECT_FALSE(ParseTerm("f(", &labels).ok());
  EXPECT_FALSE(ParseTerm("f(a,)", &labels).ok());
  EXPECT_FALSE(ParseTerm("f(a))", &labels).ok());
  EXPECT_FALSE(ParseTerm("$1(a)", &labels).ok());   // param with children
  EXPECT_FALSE(ParseTerm("f(a) x", &labels).ok());  // trailing garbage
}

TEST(TreeIoTest, RankConflictRejected) {
  LabelTable labels;
  ASSERT_TRUE(ParseTerm("f(a,b)", &labels).ok());
  EXPECT_FALSE(ParseTerm("f(a)", &labels).ok());
}

TEST(TreeIoTest, RoundTrip) {
  LabelTable labels;
  const std::string text = "f(a(~,a(~,~)),$1)";
  Tree t = ParseTerm(text, &labels).take();
  EXPECT_EQ(ToTerm(t, labels), text);
}

TEST(TreeHashTest, EqualTreesSameHash) {
  LabelTable labels;
  Tree a = ParseTerm("f(g(a,b),c)", &labels).take();
  Tree b = ParseTerm("f(g(a,b),c)", &labels).take();
  Tree c = ParseTerm("f(g(a,b),d)", &labels).take();
  EXPECT_EQ(SubtreeHash(a, a.root()), SubtreeHash(b, b.root()));
  EXPECT_NE(SubtreeHash(a, a.root()), SubtreeHash(c, c.root()));
  EXPECT_TRUE(TreeEquals(a, b));
  EXPECT_FALSE(TreeEquals(a, c));
}

TEST(TreeHashTest, ShapeSensitive) {
  LabelTable labels;
  Tree a = ParseTerm("f(g(a),b)", &labels).take();
  LabelTable labels2;
  Tree b = ParseTerm("f(g,a(b))", &labels2).take();
  (void)a;
  (void)b;
  // Same label sequence in preorder, different shape: hashes differ.
  EXPECT_NE(SubtreeHash(a, a.root()), SubtreeHash(b, b.root()));
}

TEST(TreeHashTest, AllSubtreeHashesMatchSingle) {
  LabelTable labels;
  Tree t = ParseTerm("f(g(a,b),g(a,b))", &labels).take();
  std::vector<uint64_t> hashes = AllSubtreeHashes(t);
  for (NodeId v : t.Preorder()) {
    EXPECT_EQ(hashes[static_cast<size_t>(v)], SubtreeHash(t, v));
  }
  NodeId g1 = t.Child(t.root(), 1);
  NodeId g2 = t.Child(t.root(), 2);
  EXPECT_EQ(hashes[static_cast<size_t>(g1)], hashes[static_cast<size_t>(g2)]);
}

}  // namespace
}  // namespace slg
