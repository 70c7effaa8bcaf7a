// GrammarCursor: navigation over val(G) without decompression must
// agree with navigation over the decompressed tree, on compressed
// grammars of every corpus shape.

#include "src/core/cursor.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/common/rng.h"
#include "src/core/grammar_repair.h"
#include "src/datasets/generators.h"
#include "src/grammar/rule_index.h"
#include "src/grammar/text_format.h"
#include "src/grammar/value.h"
#include "src/repair/tree_repair.h"
#include "src/xml/binary_encoding.h"

namespace slg {
namespace {

Grammar CompressedCorpus(Corpus c) {
  XmlTree xml = GenerateCorpus(c, 0.01);
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  return GrammarRePair(Grammar::ForTree(std::move(bin), labels), {}).grammar;
}

// A cursor at the root of val(g), sharing a fresh index of g.
GrammarCursor CursorOver(const Grammar& g) {
  return GrammarCursor(&g,
                       std::make_shared<const RuleIndex>(RuleIndex::Build(g)));
}

TEST(CursorTest, RootAndBasicMoves) {
  Grammar g = GrammarFromRules({
      "S -> f(A,A)",
      "A -> a(b,c)",
  }).take();
  GrammarCursor cur = CursorOver(g);
  EXPECT_TRUE(cur.AtRoot());
  EXPECT_EQ(cur.LabelName(), "f");
  EXPECT_EQ(cur.NumChildren(), 2);
  ASSERT_TRUE(cur.Down(1));
  EXPECT_EQ(cur.LabelName(), "a");  // through the A call
  EXPECT_EQ(cur.Depth(), 1);
  ASSERT_TRUE(cur.Down(2));
  EXPECT_EQ(cur.LabelName(), "c");
  EXPECT_FALSE(cur.Down(1));  // leaf
  ASSERT_TRUE(cur.Left());
  EXPECT_EQ(cur.LabelName(), "b");
  EXPECT_FALSE(cur.Left());
  ASSERT_TRUE(cur.Right());
  EXPECT_EQ(cur.LabelName(), "c");
  EXPECT_FALSE(cur.Right());
  ASSERT_TRUE(cur.Up());
  EXPECT_EQ(cur.LabelName(), "a");
  ASSERT_TRUE(cur.Right());   // second A expansion
  EXPECT_EQ(cur.LabelName(), "a");
  ASSERT_TRUE(cur.Up());
  EXPECT_TRUE(cur.AtRoot());
  EXPECT_FALSE(cur.Up());
}

// Full preorder walk via the cursor must equal the decompressed tree's
// preorder label sequence.
void WalkAndCompare(const Grammar& g) {
  Tree full = Value(g).take();
  std::vector<LabelId> expect;
  full.VisitPreorder(full.root(), [&](NodeId v) {
    expect.push_back(full.label(v));
  });

  std::vector<LabelId> got;
  GrammarCursor cur = CursorOver(g);
  // Iterative preorder using Down/Right/Up only.
  for (;;) {
    got.push_back(cur.Label());
    if (cur.Down(1)) continue;
    for (;;) {
      if (cur.Right()) break;
      if (!cur.Up()) {
        ASSERT_EQ(got.size(), expect.size());
        for (size_t i = 0; i < expect.size(); ++i) {
          ASSERT_EQ(got[i], expect[i]) << "at preorder " << i;
        }
        return;
      }
    }
  }
}

class CursorCorpusTest : public ::testing::TestWithParam<Corpus> {};

TEST_P(CursorCorpusTest, PreorderMatchesDecompressed) {
  WalkAndCompare(CompressedCorpus(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    All, CursorCorpusTest,
    ::testing::Values(Corpus::kExiWeblog, Corpus::kXMark,
                      Corpus::kExiTelecomp, Corpus::kTreebank,
                      Corpus::kMedline, Corpus::kNcbi),
    [](const ::testing::TestParamInfo<Corpus>& info) {
      std::string n = InfoFor(info.param).name;
      for (char& c : n) {
        if (c == '-') c = '_';
      }
      return n;
    });

TEST(CursorTest, ElementNavigation) {
  // <log><e><ip/><st/></e><e><ip/><st/></e></log> compressed.
  XmlTree xml;
  XmlNodeId root = xml.AddNode("log", kXmlNil);
  for (int i = 0; i < 8; ++i) {
    XmlNodeId e = xml.AddNode("e", root);
    xml.AddNode("ip", e);
    xml.AddNode("st", e);
  }
  LabelTable labels;
  Tree bin = EncodeBinary(xml, &labels);
  Grammar g = TreeRePair(std::move(bin), labels, {}).grammar;

  GrammarCursor cur = CursorOver(g);
  EXPECT_EQ(cur.LabelName(), "log");
  ASSERT_TRUE(cur.FirstChildElement());
  EXPECT_EQ(cur.LabelName(), "e");
  int siblings = 1;
  while (cur.NextSiblingElement()) ++siblings;
  EXPECT_EQ(siblings, 8);
  EXPECT_EQ(cur.LabelName(), "e");
  ASSERT_TRUE(cur.FirstChildElement());
  EXPECT_EQ(cur.LabelName(), "ip");
  ASSERT_TRUE(cur.NextSiblingElement());
  EXPECT_EQ(cur.LabelName(), "st");
  EXPECT_FALSE(cur.NextSiblingElement());
  EXPECT_FALSE(cur.FirstChildElement());  // leaf element
  ASSERT_TRUE(cur.ParentElement());
  EXPECT_EQ(cur.LabelName(), "e");
  ASSERT_TRUE(cur.ParentElement());
  EXPECT_EQ(cur.LabelName(), "log");
  EXPECT_FALSE(cur.ParentElement());
}

TEST(CursorTest, DepthTracksExponentialGrammar) {
  // Chain grammar deriving a deep path: cursor depth must be exact
  // even though the grammar is logarithmic in the tree.
  std::vector<std::string> rules = {"S -> r(A1(e),~)"};
  for (int i = 1; i < 8; ++i) {
    rules.push_back("A" + std::to_string(i) + " -> A" + std::to_string(i + 1) +
                    "(A" + std::to_string(i + 1) + "($1))");
  }
  rules.push_back("A8 -> a($1)");
  Grammar g = GrammarFromRules(rules).take();
  GrammarCursor cur = CursorOver(g);
  int depth = 0;
  while (cur.Down(1)) ++depth;
  EXPECT_EQ(cur.Depth(), depth);
  EXPECT_EQ(depth, 128 + 1);  // a-chain of 2^7 plus the leaf 'e'
  while (cur.Up()) {
  }
  EXPECT_TRUE(cur.AtRoot());
}

}  // namespace
}  // namespace slg
